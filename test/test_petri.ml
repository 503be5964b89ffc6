(* Unit and property tests for the Petri net substrate. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A small producer/consumer net used by several cases:
     t0 consumes p0, produces p1; t1 consumes p1, produces p0. *)
let ring () =
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~name:"p0" ~tokens:1 in
  let p1 = Petri.Builder.add_place b ~name:"p1" ~tokens:0 in
  let t0 = Petri.Builder.add_transition b ~name:"t0" in
  let t1 = Petri.Builder.add_transition b ~name:"t1" in
  Petri.Builder.arc_pt b p0 t0;
  Petri.Builder.arc_tp b t0 p1;
  Petri.Builder.arc_pt b p1 t1;
  Petri.Builder.arc_tp b t1 p0;
  (Petri.Builder.build b, p0, p1, t0, t1)

(* fork/join: t_fork consumes p0 and produces p1 p2; t_join reverses. *)
let forkjoin () =
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~name:"p0" ~tokens:1 in
  let p1 = Petri.Builder.add_place b ~name:"p1" ~tokens:0 in
  let p2 = Petri.Builder.add_place b ~name:"p2" ~tokens:0 in
  let tf = Petri.Builder.add_transition b ~name:"fork" in
  let tj = Petri.Builder.add_transition b ~name:"join" in
  Petri.Builder.arc_pt b p0 tf;
  Petri.Builder.arc_tp b tf p1;
  Petri.Builder.arc_tp b tf p2;
  Petri.Builder.arc_pt b p1 tj;
  Petri.Builder.arc_pt b p2 tj;
  Petri.Builder.arc_tp b tj p0;
  Petri.Builder.build b

(* ---------------- Marking ---------------- *)

let test_marking_basics () =
  let m = Marking.of_array [| 1; 0; 2 |] in
  check_int "size" 3 (Marking.size m);
  check_int "tokens" 2 (Marking.tokens m 2);
  check_int "total" 3 (Marking.total m);
  check "safe" false (Marking.is_safe m);
  Alcotest.(check (list int)) "marked" [ 0; 2 ] (Marking.marked_places m);
  let m' = Marking.set m 2 1 in
  check "safe after set" true (Marking.is_safe m');
  check "immutable" true (Marking.tokens m 2 = 2)

let test_marking_add () =
  let m = Marking.empty 4 in
  let m = Marking.add m 1 2 in
  check_int "added" 2 (Marking.tokens m 1);
  let m = Marking.add m 1 (-1) in
  check_int "removed" 1 (Marking.tokens m 1);
  Alcotest.check_raises "negative" (Invalid_argument "Marking.add: negative token count")
    (fun () -> ignore (Marking.add m 1 (-5)))

let test_marking_negative () =
  Alcotest.check_raises "of_array"
    (Invalid_argument "Marking.of_array: negative token count") (fun () ->
      ignore (Marking.of_array [| -1 |]))

let test_marking_equality () =
  let a = Marking.of_array [| 1; 0 |] and b = Marking.of_array [| 1; 0 |] in
  check "equal" true (Marking.equal a b);
  check "hash equal" true (Marking.hash a = Marking.hash b);
  check "compare" true (Marking.compare a b = 0);
  let c = Marking.of_array [| 0; 1 |] in
  check "not equal" false (Marking.equal a c)

(* ---------------- Net dynamics ---------------- *)

let test_enabled_fire () =
  let net, p0, p1, t0, t1 = ring () in
  let m0 = Petri.initial_marking net in
  check "t0 enabled" true (Petri.enabled net m0 t0);
  check "t1 disabled" false (Petri.enabled net m0 t1);
  let m1 = Petri.fire net m0 t0 in
  check_int "token moved" 0 (Marking.tokens m1 p0);
  check_int "token arrived" 1 (Marking.tokens m1 p1);
  Alcotest.check_raises "firing disabled"
    (Invalid_argument "Petri.fire: transition t0 not enabled") (fun () ->
      ignore (Petri.fire net m1 t0))

let test_enabled_transitions () =
  let net, _, _, t0, _ = ring () in
  Alcotest.(check (list int))
    "only t0" [ t0 ]
    (Petri.enabled_transitions net (Petri.initial_marking net))

let test_fork_join_tokens () =
  let net = forkjoin () in
  let m0 = Petri.initial_marking net in
  let m1 = Petri.fire net m0 0 in
  check_int "fork duplicates tokens" 2 (Marking.total m1);
  let m2 = Petri.fire net m1 1 in
  check "join restores initial" true (Marking.equal m0 m2)

(* ---------------- Structural classes ---------------- *)

let test_marked_graph () =
  let net, _, _, _, _ = ring () in
  check "ring is MG" true (Petri.is_marked_graph net);
  check "ring is FC" true (Petri.is_free_choice net);
  let net = forkjoin () in
  check "forkjoin is MG" true (Petri.is_marked_graph net)

let test_free_choice () =
  (* place with two consumers, each with that place as sole input: FC *)
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~name:"p0" ~tokens:1 in
  let pa = Petri.Builder.add_place b ~name:"pa" ~tokens:0 in
  let ta = Petri.Builder.add_transition b ~name:"ta" in
  let tb = Petri.Builder.add_transition b ~name:"tb" in
  let tr = Petri.Builder.add_transition b ~name:"tr" in
  Petri.Builder.arc_pt b p0 ta;
  Petri.Builder.arc_pt b p0 tb;
  Petri.Builder.arc_tp b ta pa;
  Petri.Builder.arc_tp b tb pa;
  Petri.Builder.arc_pt b pa tr;
  Petri.Builder.arc_tp b tr p0;
  let net = Petri.Builder.build b in
  check "choice is FC" true (Petri.is_free_choice net);
  check "choice is not MG" false (Petri.is_marked_graph net);
  (* add a second input place to ta: no longer free choice *)
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~name:"p0" ~tokens:1 in
  let q = Petri.Builder.add_place b ~name:"q" ~tokens:1 in
  let ta = Petri.Builder.add_transition b ~name:"ta" in
  let tb = Petri.Builder.add_transition b ~name:"tb" in
  Petri.Builder.arc_pt b p0 ta;
  Petri.Builder.arc_pt b p0 tb;
  Petri.Builder.arc_pt b q ta;
  Petri.Builder.arc_tp b ta p0;
  Petri.Builder.arc_tp b ta q;
  Petri.Builder.arc_tp b tb p0;
  let net = Petri.Builder.build b in
  check "shared input is not FC" false (Petri.is_free_choice net)

let test_builder_validation () =
  let b = Petri.Builder.create () in
  let _p = Petri.Builder.add_place b ~name:"p" ~tokens:0 in
  Alcotest.check_raises "unknown transition"
    (Invalid_argument "Petri.Builder: unknown transition") (fun () ->
      Petri.Builder.arc_pt b 0 5)

(* ---------------- Reachability ---------------- *)

let test_reach_ring () =
  let net, _, _, _, _ = ring () in
  let g = Reach.explore net in
  check_int "two markings" 2 (Reach.n_states g);
  check_int "two edges" 2 (Reach.n_edges g);
  check "safe" true (Reach.is_safe g);
  check "strongly connected" true (Reach.strongly_connected g);
  check "quasi live" true (Reach.quasi_live g);
  Alcotest.(check (list int)) "no deadlock" [] (Reach.deadlocks g)

let test_reach_forkjoin () =
  let net = forkjoin () in
  let g = Reach.explore net in
  check_int "two markings" 2 (Reach.n_states g);
  check "safe" true (Reach.is_safe g)

let test_reach_deadlock () =
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~name:"p0" ~tokens:1 in
  let p1 = Petri.Builder.add_place b ~name:"p1" ~tokens:0 in
  let t = Petri.Builder.add_transition b ~name:"t" in
  Petri.Builder.arc_pt b p0 t;
  Petri.Builder.arc_tp b t p1;
  let net = Petri.Builder.build b in
  let g = Reach.explore net in
  check_int "deadlock found" 1 (List.length (Reach.deadlocks g));
  check "not strongly connected" false (Reach.strongly_connected g)

let test_reach_unbounded () =
  (* a transition with no input is always enabled: unbounded *)
  let b = Petri.Builder.create () in
  let p = Petri.Builder.add_place b ~name:"p" ~tokens:0 in
  let t = Petri.Builder.add_transition b ~name:"t" in
  Petri.Builder.arc_tp b t p;
  let net = Petri.Builder.build b in
  check "raises cap" true
    (try
       ignore (Reach.explore ~max_states:50 net);
       false
     with Reach.Too_many_states 50 -> true)

let test_reach_unsafe () =
  (* two producers into one place create a 2-token marking *)
  let b = Petri.Builder.create () in
  let p0 = Petri.Builder.add_place b ~name:"p0" ~tokens:1 in
  let p1 = Petri.Builder.add_place b ~name:"p1" ~tokens:1 in
  let q = Petri.Builder.add_place b ~name:"q" ~tokens:0 in
  let t0 = Petri.Builder.add_transition b ~name:"t0" in
  let t1 = Petri.Builder.add_transition b ~name:"t1" in
  Petri.Builder.arc_pt b p0 t0;
  Petri.Builder.arc_tp b t0 q;
  Petri.Builder.arc_pt b p1 t1;
  Petri.Builder.arc_tp b t1 q;
  let net = Petri.Builder.build b in
  let g = Reach.explore net in
  check "unsafe detected" false (Reach.is_safe g)

let test_sccs () =
  let net, _, _, _, _ = ring () in
  let g = Reach.explore net in
  check_int "one scc" 1 (List.length (Reach.sccs g))

(* ---------------- Invariants ---------------- *)

let test_incidence () =
  let net, p0, p1, t0, _t1 = ring () in
  let c = Invariants.incidence net in
  check_int "consumes" (-1) c.(p0).(t0);
  check_int "produces" 1 c.(p1).(t0)

let test_invariants_ring () =
  let net, _, _, _, _ = ring () in
  let invs = Invariants.p_invariants net in
  check_int "one invariant" 1 (List.length invs);
  let inv = List.hd invs in
  check_int "conserves one token" 1 inv.Invariants.token_sum;
  check "covers" true (Invariants.covered net invs)

let test_invariants_forkjoin () =
  let net = forkjoin () in
  let invs = Invariants.p_invariants net in
  check "covered" true (Invariants.covered net invs);
  (* every reachable marking satisfies every invariant *)
  let g = Reach.explore net in
  check "all markings" true
    (Array.for_all
       (fun m -> List.for_all (fun i -> Invariants.check net i m) invs)
       g.Reach.markings)

let test_invariants_unbounded () =
  (* source transition: the producing place cannot be covered *)
  let b = Petri.Builder.create () in
  let p = Petri.Builder.add_place b ~name:"p" ~tokens:0 in
  let q = Petri.Builder.add_place b ~name:"q" ~tokens:1 in
  let t = Petri.Builder.add_transition b ~name:"t" in
  Petri.Builder.arc_pt b q t;
  Petri.Builder.arc_tp b t q;
  Petri.Builder.arc_tp b t p;
  let net = Petri.Builder.build b in
  let invs = Invariants.p_invariants net in
  check "p not covered" false (Invariants.covered net invs);
  check "q covered" true
    (List.exists (fun i -> i.Invariants.weights.(q) > 0) invs)

let prop_invariants_hold_on_benchmarks =
  QCheck.Test.make ~name:"invariants hold on every reachable marking"
    ~count:8
    QCheck.(int_range 1 4)
    (fun stages ->
      let net = Stg.net (Bench_gen.pipeline ~stages) in
      match Invariants.p_invariants net with
      | invs ->
        let g = Reach.explore net in
        Array.for_all
          (fun m -> List.for_all (fun i -> Invariants.check net i m) invs)
          g.Reach.markings
      | exception Invariants.Too_many _ -> true)

(* ---------------- Properties ---------------- *)

(* Random 1-safe ring-shaped nets: firing conserves tokens on rings. *)
let prop_fire_conserves_ring =
  QCheck.Test.make ~name:"ring firing conserves token count" ~count:100
    QCheck.(int_range 2 12)
    (fun n ->
      let b = Petri.Builder.create () in
      let ps =
        Array.init n (fun i ->
            Petri.Builder.add_place b ~name:(Printf.sprintf "p%d" i)
              ~tokens:(if i = 0 then 1 else 0))
      in
      let ts =
        Array.init n (fun i ->
            Petri.Builder.add_transition b ~name:(Printf.sprintf "t%d" i))
      in
      for i = 0 to n - 1 do
        Petri.Builder.arc_pt b ps.(i) ts.(i);
        Petri.Builder.arc_tp b ts.(i) ps.((i + 1) mod n)
      done;
      let net = Petri.Builder.build b in
      let m = ref (Petri.initial_marking net) in
      let ok = ref true in
      for _step = 1 to 3 * n do
        match Petri.enabled_transitions net !m with
        | [ t ] ->
          m := Petri.fire net !m t;
          if Marking.total !m <> 1 then ok := false
        | _ -> ok := false
      done;
      !ok)

let prop_reach_explores_ring =
  QCheck.Test.make ~name:"ring reachability has n states" ~count:50
    QCheck.(int_range 2 12)
    (fun n ->
      let b = Petri.Builder.create () in
      let ps =
        Array.init n (fun i ->
            Petri.Builder.add_place b ~name:(Printf.sprintf "p%d" i)
              ~tokens:(if i = 0 then 1 else 0))
      in
      let ts =
        Array.init n (fun i ->
            Petri.Builder.add_transition b ~name:(Printf.sprintf "t%d" i))
      in
      for i = 0 to n - 1 do
        Petri.Builder.arc_pt b ps.(i) ts.(i);
        Petri.Builder.arc_tp b ts.(i) ps.((i + 1) mod n)
      done;
      let net = Petri.Builder.build b in
      let g = Reach.explore net in
      Reach.n_states g = n && Reach.strongly_connected g && Reach.quasi_live g)

(* hash and pack must agree with equal: equal markings share hash and
   pack; pack is injective (pack a = pack b iff equal a b).  The
   generator mixes safe markings (bit-packed encoding) and unsafe ones
   (wide fallback), and rebuilds [a] a second time so the "equal implies
   same pack/hash" direction is always exercised. *)
let prop_marking_hash_pack =
  let gen_counts =
    QCheck.Gen.(list_size (int_range 0 40) (int_range 0 3))
  in
  QCheck.Test.make ~name:"marking hash/pack agree with equal" ~count:300
    (QCheck.make
       ~print:
         QCheck.Print.(pair (list int) (list int))
       QCheck.Gen.(pair gen_counts gen_counts))
    (fun (a, b) ->
      let ma = Marking.of_array (Array.of_list a) in
      let ma' = Marking.of_array (Array.of_list a) in
      let mb = Marking.of_array (Array.of_list b) in
      let eq = Marking.equal ma mb in
      Marking.equal ma ma'
      && Marking.hash ma = Marking.hash ma'
      && Marking.pack ma = Marking.pack ma'
      && (Marking.pack ma = Marking.pack mb) = eq
      && ((not eq) || Marking.hash ma = Marking.hash mb))

(* The symbolic engine's boolean encoding caps at 62 places (one
   current-state bit per place in an OCaml int), so 1-safe markings just
   under and just over that width are exactly the ones the two
   reachability engines intern hardest.  Pack's bit-packed encoding must
   stay injective straight across the word- and byte-size boundaries —
   distinct markings of 58..70 places may never collide, and equal ones
   must still share an encoding.  Seed pinned via Qseed (QCHECK_SEED
   overrides). *)
let prop_pack_injective_wide =
  let gen_wide =
    QCheck.Gen.(list_size (int_range 58 70) (int_range 0 1))
  in
  QCheck.Test.make ~name:"pack injective near 62 places" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair (list int) (list int))
       QCheck.Gen.(pair gen_wide gen_wide))
    (fun (a, b) ->
      let ma = Marking.of_array (Array.of_list a) in
      let mb = Marking.of_array (Array.of_list b) in
      (Marking.pack ma = Marking.pack mb) = Marking.equal ma mb)

(* Deterministic boundary cases the property above samples only by
   luck: every single-token marking of widths straddling 62 (the
   symbolic cap), 64 (the payload byte boundary) and the empty marking
   of each width must pack to pairwise distinct strings — widths
   included, since a token in place 61 of 62 and of 63 are different
   markings with the same bit pattern. *)
let test_pack_wide_regression () =
  let widths = [ 61; 62; 63; 64; 65 ] in
  let encodings =
    List.concat_map
      (fun n ->
        let single p = Array.init n (fun i -> if i = p then 1 else 0) in
        (Printf.sprintf "%d:empty" n, Marking.pack (Marking.of_array (Array.make n 0)))
        :: List.init n (fun p ->
               (Printf.sprintf "%d:p%d" n p, Marking.pack (Marking.of_array (single p)))))
      widths
  in
  List.iteri
    (fun i (ni, pi) ->
      List.iteri
        (fun j (nj, pj) ->
          if i < j && pi = pj then
            Alcotest.failf "pack collision: %s vs %s" ni nj)
        encodings)
    encodings

let () =
  Alcotest.run "petri"
    [
      ( "marking",
        [
          Alcotest.test_case "basics" `Quick test_marking_basics;
          Alcotest.test_case "add" `Quick test_marking_add;
          Alcotest.test_case "negative" `Quick test_marking_negative;
          Alcotest.test_case "equality" `Quick test_marking_equality;
        ] );
      ( "dynamics",
        [
          Alcotest.test_case "enabled/fire" `Quick test_enabled_fire;
          Alcotest.test_case "enabled list" `Quick test_enabled_transitions;
          Alcotest.test_case "fork/join" `Quick test_fork_join_tokens;
        ] );
      ( "structure",
        [
          Alcotest.test_case "marked graph" `Quick test_marked_graph;
          Alcotest.test_case "free choice" `Quick test_free_choice;
          Alcotest.test_case "builder validation" `Quick test_builder_validation;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "ring" `Quick test_reach_ring;
          Alcotest.test_case "fork/join" `Quick test_reach_forkjoin;
          Alcotest.test_case "deadlock" `Quick test_reach_deadlock;
          Alcotest.test_case "unbounded" `Quick test_reach_unbounded;
          Alcotest.test_case "unsafe" `Quick test_reach_unsafe;
          Alcotest.test_case "sccs" `Quick test_sccs;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "incidence" `Quick test_incidence;
          Alcotest.test_case "ring" `Quick test_invariants_ring;
          Alcotest.test_case "fork/join" `Quick test_invariants_forkjoin;
          Alcotest.test_case "unbounded" `Quick test_invariants_unbounded;
        ] );
      ( "properties",
        [
          Qseed.to_alcotest prop_fire_conserves_ring;
          Qseed.to_alcotest prop_reach_explores_ring;
          Qseed.to_alcotest prop_invariants_hold_on_benchmarks;
          Qseed.to_alcotest prop_marking_hash_pack;
          Qseed.to_alcotest prop_pack_injective_wide;
          Alcotest.test_case "pack wide boundary regression" `Quick
            test_pack_wide_regression;
        ] );
    ]
