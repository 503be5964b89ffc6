(* Tests for the SAT-CSC encoding and the direct (Vanbekbergen-style)
   method. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pulse_sg () =
  Sg.of_stg
    Stg_builder.(
      compile ~name:"pulse" ~inputs:[ "r" ] ~outputs:[ "a" ]
        (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))

(* two independent conflicts *)
let double_pulse_sg () =
  Sg.of_stg
    Stg_builder.(
      compile ~name:"dp" ~inputs:[ "r" ] ~outputs:[ "a"; "b" ]
        (seq
           [ plus "r"; plus "a"; minus "a"; plus "b"; minus "b"; minus "r" ]))

(* ---------------- Encoding ---------------- *)

let test_encode_sizes () =
  let sg = pulse_sg () in
  let enc = Csc_encode.encode sg ~n_new:1 in
  (* 2 bits per state plus auxiliaries *)
  check "vars include value bits" true
    (Cnf.n_vars enc.Csc_encode.cnf >= 2 * Sg.n_states sg);
  check "has clauses" true (Cnf.n_clauses enc.Csc_encode.cnf > 0);
  check_int "base vars" (2 * Sg.n_states sg) enc.Csc_encode.base_vars

let test_encode_zero_signals_unsat () =
  (* with no new signals the conflict clause is empty: unsatisfiable *)
  let sg = pulse_sg () in
  let enc = Csc_encode.encode sg ~n_new:0 in
  check "unsat" true (Dpll.satisfiable enc.Csc_encode.cnf = None)

let test_encode_solve_decode () =
  let sg = pulse_sg () in
  let enc = Csc_encode.encode sg ~n_new:1 in
  match Dpll.satisfiable enc.Csc_encode.cnf with
  | None -> Alcotest.fail "one signal must suffice for the pulse"
  | Some model ->
    let values = Csc_encode.decode enc model in
    check_int "one signal decoded" 1 (Array.length values);
    check_int "one value per state" (Sg.n_states sg)
      (Array.length values.(0));
    (* applying must yield a CSC-satisfying, edge-consistent graph *)
    let solved = Csc_encode.apply sg enc model ~names:[| "n0" |] in
    check "csc satisfied" true (Csc.csc_satisfied solved)

let test_encode_edge_consistency_enforced () =
  (* every decoded assignment is edge-consistent by construction: check
     over several models by re-solving with blocking clauses *)
  let sg = pulse_sg () in
  let enc = Csc_encode.encode sg ~n_new:1 in
  let cnf = enc.Csc_encode.cnf in
  let rec loop k =
    if k = 0 then ()
    else
      match Dpll.satisfiable cnf with
      | None -> ()
      | Some model ->
        let solved = Csc_encode.apply sg enc model ~names:[| "n" |] in
        check "consistent" true (Csc.csc_satisfied solved);
        (* block this model on the value bits *)
        let blocking = ref [] in
        for v = 1 to enc.Csc_encode.base_vars do
          blocking := (if model.(v) then -v else v) :: !blocking
        done;
        Cnf.add_clause cnf !blocking;
        loop (k - 1)
  in
  loop 5

let test_encode_resolve_subset () =
  let sg = double_pulse_sg () in
  let pairs = Csc.conflict_pairs sg in
  check "at least two conflicts" true (List.length pairs >= 2);
  (* resolving only the first pair must be satisfiable with one signal
     and leave the remaining conflicts either resolved or untouched *)
  let enc = Csc_encode.encode ~resolve:[ List.hd pairs ] sg ~n_new:1 in
  match Dpll.satisfiable enc.Csc_encode.cnf with
  | None -> Alcotest.fail "single-pair instance must be satisfiable"
  | Some model ->
    let solved = Csc_encode.apply sg enc model ~names:[| "n" |] in
    let m, m' = List.hd pairs in
    check "target pair distinguished" true
      (Sg.full_code solved m <> Sg.full_code solved m')

(* ---------------- Direct method ---------------- *)

let test_direct_pulse () =
  let r = Csc_direct.solve (pulse_sg ()) in
  (match r.Csc_direct.outcome with
  | Csc_direct.Solved solved ->
    check "satisfied" true (Csc.csc_satisfied solved);
    check_int "one new signal" 1 r.Csc_direct.n_new
  | Csc_direct.Gave_up _ -> Alcotest.fail "must solve");
  check_int "one formula" 1 (List.length r.Csc_direct.formulas)

let test_direct_already_satisfied () =
  let sg =
    Sg.of_stg
      Stg_builder.(
        compile ~name:"hs" ~inputs:[ "r" ] ~outputs:[ "a" ]
          (seq [ plus "r"; plus "a"; minus "r"; minus "a" ]))
  in
  let r = Csc_direct.solve sg in
  (match r.Csc_direct.outcome with
  | Csc_direct.Solved solved -> check "unchanged" true (solved == sg)
  | _ -> Alcotest.fail "no work needed");
  check_int "no formulas" 0 (List.length r.Csc_direct.formulas)

let test_direct_backtrack_abort () =
  (* a large conflict-heavy instance with an impossible budget *)
  let sg = Sg.of_stg (Bench_gen.concurrent_pulsers ~branches:3) in
  match (Csc_direct.solve ~backtrack_limit:1 sg).Csc_direct.outcome with
  | Csc_direct.Gave_up Dpll.Backtrack_limit -> ()
  | Csc_direct.Gave_up (Dpll.Time_limit | Dpll.Signal_limit) ->
    Alcotest.fail "wrong abort"
  | Csc_direct.Solved _ -> Alcotest.fail "cannot solve with 1 backtrack"

let test_direct_time_abort () =
  (* a zero wall-clock budget for the whole call: the first DPLL search
     finds its deadline already passed *)
  match (Csc_direct.solve ~time_limit:0.0 (pulse_sg ())).Csc_direct.outcome with
  | Csc_direct.Gave_up Dpll.Time_limit -> ()
  | Csc_direct.Gave_up r ->
    Alcotest.failf "wrong abort: %s" (Dpll.string_of_abort_reason r)
  | Csc_direct.Solved _ -> Alcotest.fail "cannot solve in zero seconds"

let test_direct_expansion_valid () =
  let r = Csc_direct.solve (double_pulse_sg ()) in
  match r.Csc_direct.outcome with
  | Csc_direct.Solved solved ->
    let ex = Sg_expand.expand solved in
    check "expanded csc" true (Csc.csc_satisfied ex);
    check "expanded usc" true (Csc.usc_satisfied ex);
    (* derived logic matches every state *)
    let fs = Derive.synthesize ex in
    check_int "no mismatches" 0 (List.length (Derive.check fs ex))
  | _ -> Alcotest.fail "must solve"

(* ---------------- The shared search loop ---------------- *)

(* [Csc_search.search] with plain DPLL as its model source, on the
   double pulse (one signal cannot separate its conflicts, two can in
   more than 32 ways): a refuted rung climbs, a rejected labeling is
   blocked so the next model is a different labeling, 32 rejections
   climb to the next rung, and an abort stops the whole search. *)
let test_search_loop () =
  let sg = double_pulse_sg () in
  let realize enc model =
    Csc_encode.apply sg enc model
      ~names:(Array.init enc.Csc_encode.n_new (Printf.sprintf "s%d"))
  in
  let search ?accept
      ?(propose = fun cnf -> Csc_search.dpll ~deadline:Deadline.none cnf)
      ladder =
    Csc_search.search ?accept ~ladder ~propose ~realize sg
  in
  let formulas r = List.length r.Csc_search.formulas in
  let r = search [ (1, `Strict); (2, `Strict) ] in
  (match r.Csc_search.outcome with
  | Csc_search.Found (solved, 2) ->
    check "climbed past the refuted rung" true (Csc.csc_satisfied solved)
  | _ -> Alcotest.fail "two signals solve");
  check_int "both rungs encoded" 2 (formulas r);
  let seen = ref [] in
  let accept g =
    seen := Sg.digest g :: !seen;
    List.length !seen = 2
  in
  (match (search ~accept [ (2, `Strict) ]).Csc_search.outcome with
  | Csc_search.Found _ -> (
    match !seen with
    | [ second; first ] ->
      check "the blocked labeling is not proposed again" true (first <> second)
    | _ -> Alcotest.fail "two labelings judged")
  | Csc_search.Gave_up _ -> Alcotest.fail "the second labeling is accepted");
  let judged = ref 0 in
  let r =
    search ~accept:(fun _ -> incr judged; false) [ (2, `Strict); (3, `Strict) ]
  in
  (match r.Csc_search.outcome with
  | Csc_search.Gave_up Dpll.Signal_limit -> ()
  | _ -> Alcotest.fail "every labeling rejected: signal limit");
  check_int "32 rejections per rung" 64 !judged;
  let r =
    search ~propose:(fun _ -> Csc_search.Abort Dpll.Time_limit)
      [ (2, `Strict); (3, `Strict) ]
  in
  (match r.Csc_search.outcome with
  | Csc_search.Gave_up Dpll.Time_limit -> ()
  | _ -> Alcotest.fail "an abort ends the search");
  check_int "no rung after the abort" 1 (formulas r)

(* property: on random pipeline controllers, the direct method solves and
   the result satisfies CSC after expansion *)
let prop_direct_pipelines =
  QCheck.Test.make ~name:"direct method solves pipeline family" ~count:6
    QCheck.(int_range 1 4)
    (fun stages ->
      let sg = Sg.of_stg (Bench_gen.pipeline ~stages) in
      match (Csc_direct.solve sg).Csc_direct.outcome with
      | Csc_direct.Solved solved ->
        Csc.csc_satisfied (Sg_expand.expand solved)
      | Csc_direct.Gave_up _ -> false)

let () =
  Alcotest.run "satcsc"
    [
      ( "encoding",
        [
          Alcotest.test_case "sizes" `Quick test_encode_sizes;
          Alcotest.test_case "zero signals" `Quick
            test_encode_zero_signals_unsat;
          Alcotest.test_case "solve+decode" `Quick test_encode_solve_decode;
          Alcotest.test_case "edge consistency" `Quick
            test_encode_edge_consistency_enforced;
          Alcotest.test_case "resolve subset" `Quick test_encode_resolve_subset;
        ] );
      ( "direct",
        [
          Alcotest.test_case "pulse" `Quick test_direct_pulse;
          Alcotest.test_case "already satisfied" `Quick
            test_direct_already_satisfied;
          Alcotest.test_case "backtrack abort" `Quick
            test_direct_backtrack_abort;
          Alcotest.test_case "expansion valid" `Quick
            test_direct_expansion_valid;
          Alcotest.test_case "time abort" `Quick test_direct_time_abort;
        ] );
      ( "search loop",
        [ Alcotest.test_case "climb, block, abort" `Quick test_search_loop ]
      );
      ("properties", [ Qseed.to_alcotest prop_direct_pipelines ]);
    ]
