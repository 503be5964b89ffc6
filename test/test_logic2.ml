(* Tests for cubes, covers, the espresso-style minimizer, support
   reduction, next-state derivation and hazard analysis. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ---------------- Cube ---------------- *)

let test_cube_basics () =
  let c = Cube.make ~pos:0b101 ~neg:0b010 in
  check_int "literals" 3 (Cube.n_literals c);
  check "covers 101" true (Cube.covers_minterm c 0b101);
  check "rejects 111" false (Cube.covers_minterm c 0b111);
  check "fixes 0" true (Cube.fixes c 0);
  check "does not fix 3" false (Cube.fixes c 3);
  Alcotest.(check (list int)) "vars" [ 0; 1; 2 ] (Cube.vars c)

let test_cube_contradiction () =
  check "raises" true
    (try
       ignore (Cube.make ~pos:1 ~neg:1);
       false
     with Invalid_argument _ -> true)

let test_cube_top () =
  check_int "no literals" 0 (Cube.n_literals Cube.top);
  check "covers everything" true (Cube.covers_minterm Cube.top 12345)

let test_cube_minterm () =
  let c = Cube.of_minterm ~width:3 0b110 in
  check_int "all fixed" 3 (Cube.n_literals c);
  check "covers itself" true (Cube.covers_minterm c 0b110);
  check "covers nothing else" false (Cube.covers_minterm c 0b100)

let test_cube_contains () =
  let big = Cube.make ~pos:0b1 ~neg:0 in
  let small = Cube.make ~pos:0b101 ~neg:0b010 in
  check "big contains small" true (Cube.contains big small);
  check "small not contains big" false (Cube.contains small big);
  check "reflexive" true (Cube.contains big big)

let test_cube_intersects_distance () =
  let a = Cube.make ~pos:0b1 ~neg:0 in
  let b = Cube.make ~pos:0 ~neg:0b1 in
  check "disjoint" false (Cube.intersects a b);
  check_int "distance 1" 1 (Cube.distance a b);
  let c = Cube.make ~pos:0b10 ~neg:0 in
  check "overlap" true (Cube.intersects a c);
  check_int "distance 0" 0 (Cube.distance a c)

let test_cube_drop () =
  let c = Cube.of_minterm ~width:2 0b11 in
  let c' = Cube.drop_var c 0 in
  check "freed" false (Cube.fixes c' 0);
  check "covers both" true
    (Cube.covers_minterm c' 0b10 && Cube.covers_minterm c' 0b11)

let test_cube_printing () =
  let c = Cube.make ~pos:0b001 ~neg:0b100 in
  check_str "pattern" "1-0" (Cube.to_pattern ~width:3 c);
  check_str "product" "a c'" (Cube.to_product [| "a"; "b"; "c" |] c);
  check_str "top" "1" (Cube.to_product [| "a" |] Cube.top)

(* ---------------- Cover ---------------- *)

let test_cover_eval () =
  let f =
    Cover.make ~width:2
      [ Cube.make ~pos:0b01 ~neg:0; Cube.make ~pos:0 ~neg:0b11 ]
  in
  check "covers 01" true (Cover.eval f 0b01);
  check "covers 00" true (Cover.eval f 0b00);
  check "rejects 10" false (Cover.eval f 0b10);
  check_int "literals" 3 (Cover.n_literals f)

let test_cover_sop () =
  let f = Cover.make ~width:2 [ Cube.make ~pos:0b01 ~neg:0b10 ] in
  check_str "sop" "a b'" (Cover.to_sop [| "a"; "b" |] f);
  check_str "empty" "0" (Cover.to_sop [| "a"; "b" |] (Cover.empty ~width:2))

(* ---------------- Espresso ---------------- *)

let test_minimize_xor () =
  (* xor has no don't-cares and needs 2 cubes x 2 literals *)
  let f =
    Espresso.minimize ~width:2 ~onset:[ 0b01; 0b10 ] ~offset:[ 0b00; 0b11 ]
  in
  check_int "two cubes" 2 (Cover.n_cubes f);
  check_int "four literals" 4 (Cover.n_literals f);
  check "verifies" true
    (Espresso.verify ~onset:[ 0b01; 0b10 ] ~offset:[ 0b00; 0b11 ] f)

let test_minimize_with_dc () =
  (* onset {11}, offset {00}: single literal suffices via don't-cares *)
  let f = Espresso.minimize ~width:2 ~onset:[ 0b11 ] ~offset:[ 0b00 ] in
  check_int "one cube" 1 (Cover.n_cubes f);
  check_int "one literal" 1 (Cover.n_literals f)

let test_minimize_tautology () =
  let f = Espresso.minimize ~width:2 ~onset:[ 0; 1; 2; 3 ] ~offset:[] in
  check_int "universal cube" 1 (Cover.n_cubes f);
  check_int "no literals" 0 (Cover.n_literals f)

let test_minimize_empty () =
  let f = Espresso.minimize ~width:3 ~onset:[] ~offset:[ 1; 2 ] in
  check_int "empty cover" 0 (Cover.n_cubes f)

let test_minimize_overlap_rejected () =
  check "raises" true
    (try
       ignore (Espresso.minimize ~width:2 ~onset:[ 1 ] ~offset:[ 1 ]);
       false
     with Invalid_argument _ -> true)

let test_minimize_primality () =
  let onset = [ 0b000; 0b001; 0b011 ] and offset = [ 0b100; 0b111 ] in
  let f = Espresso.minimize ~width:3 ~onset ~offset in
  check "verify" true (Espresso.verify ~onset ~offset f);
  List.iter
    (fun c -> check "prime" true (Espresso.is_prime ~width:3 ~offset c))
    f.Cover.cubes;
  check "irredundant" true (Espresso.is_irredundant ~onset f)

(* random incompletely-specified functions *)
let gen_function =
  let open QCheck.Gen in
  let* width = int_range 2 6 in
  let universe = List.init (1 lsl width) Fun.id in
  let* labels = list_repeat (1 lsl width) (int_range 0 2) in
  (* 0 = offset, 1 = onset, 2 = dc *)
  let onset =
    List.filteri (fun i _ -> List.nth labels i = 1) universe
  in
  let offset =
    List.filteri (fun i _ -> List.nth labels i = 0) universe
  in
  return (width, onset, offset)

let prop_minimize_correct =
  QCheck.Test.make ~name:"minimize covers onset and avoids offset" ~count:200
    (QCheck.make gen_function) (fun (width, onset, offset) ->
      let f = Espresso.minimize ~width ~onset ~offset in
      Espresso.verify ~onset ~offset f)

let prop_minimize_prime_irredundant =
  QCheck.Test.make ~name:"minimize yields prime irredundant covers"
    ~count:200 (QCheck.make gen_function) (fun (width, onset, offset) ->
      let f = Espresso.minimize ~width ~onset ~offset in
      List.for_all (Espresso.is_prime ~width ~offset) f.Cover.cubes
      && (onset = [] || Espresso.is_irredundant ~onset f))

let prop_minimize_beats_minterms =
  QCheck.Test.make ~name:"minimized literals <= minterm-cover literals"
    ~count:200 (QCheck.make gen_function) (fun (width, onset, offset) ->
      let f = Espresso.minimize ~width ~onset ~offset in
      Cover.n_literals f <= width * List.length onset)

(* The minimizer must make every choice the reference copy makes: the
   same primes, the same essential and greedy picks, the same backward
   sweep.  Inputs come unsorted and with repeats, up to 8 variables, and
   sometimes overlapping, where both must refuse with the same message. *)
let gen_unsorted_function =
  let open QCheck.Gen in
  let* width = int_range 1 8 in
  let minterm = int_bound ((1 lsl width) - 1) in
  let* onset = list_size (int_bound 60) minterm in
  let* offset = list_size (int_bound 60) minterm in
  let* disjoint = bool in
  let offset =
    if disjoint then List.filter (fun m -> not (List.mem m onset)) offset
    else offset
  in
  return (width, onset, offset)

let prop_minimize_matches_reference =
  let gen = QCheck.Gen.oneof [ gen_function; gen_unsorted_function ] in
  QCheck.Test.make ~name:"minimize picks the reference cover" ~count:500
    (QCheck.make gen) (fun (width, onset, offset) ->
      let run f =
        match f ~width ~onset ~offset with
        | c -> Ok c.Cover.cubes
        | exception Invalid_argument msg -> Error msg
      in
      run Espresso.minimize = run Espresso_ref.minimize)

(* ---------------- Exact minimization ---------------- *)

let test_exact_primes () =
  (* f(x,y) = x xor y has exactly 2 primes, each a full minterm *)
  let primes =
    Exact.all_primes ~width:2 ~onset:[ 0b01; 0b10 ] ~offset:[ 0b00; 0b11 ] ()
  in
  check_int "two primes" 2 (List.length primes);
  List.iter (fun c -> check_int "full literals" 2 (Cube.n_literals c)) primes

let test_exact_primes_with_dc () =
  (* onset {11}, offset {00}: primes are the two single literals *)
  let primes = Exact.all_primes ~width:2 ~onset:[ 0b11 ] ~offset:[ 0b00 ] () in
  check_int "two primes" 2 (List.length primes);
  List.iter (fun c -> check_int "one literal" 1 (Cube.n_literals c)) primes

let test_exact_minimize_xor () =
  let f =
    Exact.minimize ~width:2 ~onset:[ 0b01; 0b10 ] ~offset:[ 0b00; 0b11 ] ()
  in
  check_int "four literals" 4 (Cover.n_literals f);
  check "verifies" true
    (Espresso.verify ~onset:[ 0b01; 0b10 ] ~offset:[ 0b00; 0b11 ] f)

let test_exact_caps () =
  check "prime cap" true
    (try
       ignore
         (Exact.all_primes ~max_primes:1 ~width:4
            ~onset:[ 0b0000; 0b1111 ]
            ~offset:[ 0b0101 ] ());
       false
     with Exact.Too_large _ -> true)

let prop_exact_beats_heuristic =
  QCheck.Test.make ~name:"exact cover is never larger than heuristic"
    ~count:120 (QCheck.make gen_function) (fun (width, onset, offset) ->
      QCheck.assume (width <= 5);
      let h = Espresso.minimize ~width ~onset ~offset in
      match Exact.minimize ~width ~onset ~offset () with
      | e ->
        Espresso.verify ~onset ~offset e
        && Cover.n_literals e <= Cover.n_literals h
      | exception Exact.Too_large _ -> true)

(* ---------------- Support ---------------- *)

let test_project () =
  check_int "reorder" 0b11 (Support.project ~vars:[ 0; 2 ] 0b101);
  check_int "drop" 0b1 (Support.project ~vars:[ 2 ] 0b100);
  check_int "empty" 0 (Support.project ~vars:[] 0b111)

let test_sufficient () =
  (* f = x0 xor x1, x2 irrelevant *)
  let onset = [ 0b001; 0b010; 0b101; 0b110 ] in
  let offset = [ 0b000; 0b011; 0b100; 0b111 ] in
  check "x0 x1 sufficient" true
    (Support.sufficient ~vars:[ 0; 1 ] ~onset ~offset);
  check "x0 alone insufficient" false
    (Support.sufficient ~vars:[ 0 ] ~onset ~offset)

let test_reduce () =
  let onset = [ 0b001; 0b010; 0b101; 0b110 ] in
  let offset = [ 0b000; 0b011; 0b100; 0b111 ] in
  Alcotest.(check (list int))
    "x2 dropped" [ 0; 1 ]
    (Support.reduce ~width:3 ~onset ~offset)

let test_grow () =
  let onset = [ 0b001; 0b010; 0b101; 0b110 ] in
  let offset = [ 0b000; 0b011; 0b100; 0b111 ] in
  let grown = Support.grow ~width:3 ~vars:[ 0 ] ~onset ~offset in
  check "grown sufficient" true (Support.sufficient ~vars:grown ~onset ~offset);
  check "keeps seed" true (List.mem 0 grown)

let test_grow_impossible () =
  check "raises" true
    (try
       ignore (Support.grow ~width:2 ~vars:[] ~onset:[ 1 ] ~offset:[ 1 ]);
       false
     with Invalid_argument _ -> true)

(* ---------------- Derivation ---------------- *)

let resolved_expanded () =
  let stg =
    Stg_builder.(
      compile ~name:"pulse" ~inputs:[ "r" ] ~outputs:[ "a" ]
        (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))
  in
  let sg = Sg.of_stg stg in
  match (Csc_direct.solve sg).Csc_direct.outcome with
  | Csc_direct.Solved solved -> Sg_expand.expand solved
  | Csc_direct.Gave_up _ -> Alcotest.fail "direct must solve the pulse"

let test_derive_functions () =
  let ex = resolved_expanded () in
  let fs = Derive.synthesize ex in
  check_int "two non-input functions" 2 (List.length fs);
  check_int "implementation matches" 0 (List.length (Derive.check fs ex));
  List.iter
    (fun (f : Derive.func) ->
      check "onset nonempty" true (f.Derive.onset <> []);
      check "cover verifies" true
        (Espresso.verify ~onset:f.Derive.onset ~offset:f.Derive.offset
           f.Derive.cover))
    fs

let test_derive_requires_expansion () =
  let sg =
    Sg.of_stg
      Stg_builder.(
        compile ~name:"p" ~inputs:[ "r" ] ~outputs:[ "a" ]
          (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))
  in
  match (Csc_direct.solve sg).Csc_direct.outcome with
  | Csc_direct.Solved solved ->
    check "raises on unexpanded extras" true
      (try
         ignore (Derive.synthesize_one solved ~signal:1 ~support:[ 0 ]);
         false
       with Invalid_argument _ -> true)
  | _ -> Alcotest.fail "must solve"

let test_derive_not_csc () =
  (* an unresolved conflicting graph has ill-defined functions *)
  let sg =
    Sg.of_stg
      Stg_builder.(
        compile ~name:"p" ~inputs:[ "r" ] ~outputs:[ "a" ]
          (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))
  in
  check "raises Not_csc" true
    (try
       ignore (Derive.synthesize sg);
       false
     with Derive.Not_csc _ -> true)

(* ---------------- C-element decomposition ---------------- *)

let test_celement_pulse () =
  let ex = resolved_expanded () in
  let cs = Celement.decompose_all ex in
  check_int "two decompositions" 2 (List.length cs);
  Alcotest.(check (list string)) "verified" [] (Celement.verify ex cs);
  check "has literals" true (Celement.total_literals cs > 0)

let test_celement_smaller_networks () =
  (* each network is incompletely specified on half the states, so the
     sum of set+reset literals is at most ~the monolithic cover's and
     each individual network is no bigger *)
  let ex = resolved_expanded () in
  let fs = Derive.synthesize ex in
  let cs = Celement.decompose_all ex in
  List.iter
    (fun (c : Celement.t) ->
      let f = List.find (fun f -> f.Derive.name = c.Celement.name) fs in
      check
        (c.Celement.name ^ " set network not bigger")
        true
        (Cover.n_literals c.Celement.set_cover
        <= Cover.n_literals f.Derive.cover))
    cs

let test_celement_benchmarks () =
  List.iter
    (fun name ->
      let e = Bench_suite.find name in
      let r = Mpart.synthesize (e.Bench_suite.build ()) in
      let cs = Celement.decompose_all r.Mpart.expanded in
      Alcotest.(check (list string))
        (name ^ " verified") []
        (Celement.verify r.Mpart.expanded cs))
    [ "vbe-ex1"; "wrdata"; "nousc-ser"; "pa" ]

let test_celement_requires_expansion () =
  let sg =
    Sg.of_stg
      Stg_builder.(
        compile ~name:"p" ~inputs:[ "r" ] ~outputs:[ "a" ]
          (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))
  in
  match (Csc_direct.solve sg).Csc_direct.outcome with
  | Csc_direct.Solved solved ->
    check "raises on extras" true
      (try
         ignore (Celement.decompose solved ~signal:1 ~support:[ 0 ]);
         false
       with Invalid_argument _ -> true)
  | _ -> Alcotest.fail "must solve"

(* ---------------- Hazards ---------------- *)

let test_hazards_detected_and_fixed () =
  let ex = resolved_expanded () in
  let fs = Derive.synthesize ex in
  (* whatever the initial hazard count, enlargement must remove all
     static-1 hazards and keep functional correctness *)
  List.iter
    (fun f ->
      let f' = Hazard.hazard_free_enlargement ex f in
      check_int
        ("no hazards after enlargement: " ^ f.Derive.name)
        0
        (List.length (Hazard.static_one_hazards ex f'));
      check "still correct" true
        (Espresso.verify ~onset:f'.Derive.onset ~offset:f'.Derive.offset
           f'.Derive.cover))
    fs

let test_hazard_artificial () =
  (* hand-built cycle x=1 -> f+ -> x- -> f- -> x+; f's next-state
     function over (x, f) is exactly x, and the single-cube cover has no
     hazardous edge *)
  let sg =
    Sg.make ~name:"h"
      ~signals:
        [|
          { Sg.sname = "x"; non_input = false };
          { Sg.sname = "f"; non_input = true };
        |]
      ~codes:[| 0b01; 0b11; 0b10; 0b00 |]
      ~edges:
        [
          { Sg.src = 0; label = Sg.Ev (1, Sg.R); dst = 1 };
          { Sg.src = 1; label = Sg.Ev (0, Sg.F); dst = 2 };
          { Sg.src = 2; label = Sg.Ev (1, Sg.F); dst = 3 };
          { Sg.src = 3; label = Sg.Ev (0, Sg.R); dst = 0 };
        ]
      ~initial:0
  in
  let f = Derive.synthesize_one sg ~signal:1 ~support:[ 0 ] in
  check_str "f_next = x" "x" (Cover.to_sop f.Derive.var_names f.Derive.cover);
  check_int "no hazards" 0 (List.length (Hazard.static_one_hazards sg f))

let () =
  Alcotest.run "logic2"
    [
      ( "cube",
        [
          Alcotest.test_case "basics" `Quick test_cube_basics;
          Alcotest.test_case "contradiction" `Quick test_cube_contradiction;
          Alcotest.test_case "top" `Quick test_cube_top;
          Alcotest.test_case "minterm" `Quick test_cube_minterm;
          Alcotest.test_case "contains" `Quick test_cube_contains;
          Alcotest.test_case "intersects/distance" `Quick
            test_cube_intersects_distance;
          Alcotest.test_case "drop" `Quick test_cube_drop;
          Alcotest.test_case "printing" `Quick test_cube_printing;
        ] );
      ( "cover",
        [
          Alcotest.test_case "eval" `Quick test_cover_eval;
          Alcotest.test_case "sop" `Quick test_cover_sop;
        ] );
      ( "espresso",
        [
          Alcotest.test_case "xor" `Quick test_minimize_xor;
          Alcotest.test_case "don't cares" `Quick test_minimize_with_dc;
          Alcotest.test_case "tautology" `Quick test_minimize_tautology;
          Alcotest.test_case "empty" `Quick test_minimize_empty;
          Alcotest.test_case "overlap" `Quick test_minimize_overlap_rejected;
          Alcotest.test_case "primality" `Quick test_minimize_primality;
        ] );
      ( "exact",
        [
          Alcotest.test_case "primes xor" `Quick test_exact_primes;
          Alcotest.test_case "primes dc" `Quick test_exact_primes_with_dc;
          Alcotest.test_case "minimize xor" `Quick test_exact_minimize_xor;
          Alcotest.test_case "caps" `Quick test_exact_caps;
        ] );
      ( "support",
        [
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "sufficient" `Quick test_sufficient;
          Alcotest.test_case "reduce" `Quick test_reduce;
          Alcotest.test_case "grow" `Quick test_grow;
          Alcotest.test_case "grow impossible" `Quick test_grow_impossible;
        ] );
      ( "derive",
        [
          Alcotest.test_case "functions" `Quick test_derive_functions;
          Alcotest.test_case "requires expansion" `Quick
            test_derive_requires_expansion;
          Alcotest.test_case "not csc" `Quick test_derive_not_csc;
        ] );
      ( "celement",
        [
          Alcotest.test_case "pulse" `Quick test_celement_pulse;
          Alcotest.test_case "smaller networks" `Quick
            test_celement_smaller_networks;
          Alcotest.test_case "benchmarks" `Quick test_celement_benchmarks;
          Alcotest.test_case "requires expansion" `Quick
            test_celement_requires_expansion;
        ] );
      ( "hazard",
        [
          Alcotest.test_case "enlargement" `Quick
            test_hazards_detected_and_fixed;
          Alcotest.test_case "artificial graph" `Quick test_hazard_artificial;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_minimize_correct;
          QCheck_alcotest.to_alcotest prop_minimize_prime_irredundant;
          QCheck_alcotest.to_alcotest prop_minimize_beats_minterms;
          QCheck_alcotest.to_alcotest prop_exact_beats_heuristic;
          Qseed.to_alcotest prop_minimize_matches_reference;
        ] );
    ]
