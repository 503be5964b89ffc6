(* Tests for the CNF representation, the DPLL solver and WalkSAT. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- Cnf ---------------- *)

let test_cnf_build () =
  let f = Cnf.create () in
  let a = Cnf.fresh_var f in
  let b = Cnf.fresh_var f in
  Cnf.add_clause f [ a; b ];
  Cnf.add_clause f [ -a ];
  check_int "vars" 2 (Cnf.n_vars f);
  check_int "clauses" 2 (Cnf.n_clauses f);
  check "no empty" false (Cnf.has_empty_clause f)

let test_cnf_tautology_dropped () =
  let f = Cnf.create () in
  let a = Cnf.fresh_var f in
  Cnf.add_clause f [ a; -a ];
  check_int "tautology dropped" 0 (Cnf.n_clauses f)

let test_cnf_duplicate_literals () =
  let f = Cnf.create () in
  let a = Cnf.fresh_var f in
  Cnf.add_clause f [ a; a; a ];
  check_int "one clause" 1 (Cnf.n_clauses f);
  check_int "deduplicated" 1 (Array.length (Cnf.clauses f).(0))

(* Whole-clause deduplication: a clause added twice, with its literals
   in another order the second time, is stored once. *)
let test_cnf_duplicate_clause () =
  let f = Cnf.create () in
  let a = Cnf.fresh_var f and b = Cnf.fresh_var f in
  Cnf.add_clause f [ a; -b ];
  Cnf.add_clause f [ -b; a ];
  check_int "one clause" 1 (Cnf.n_clauses f)

let test_cnf_empty_clause () =
  let f = Cnf.create () in
  Cnf.add_clause f [];
  check "empty recorded" true (Cnf.has_empty_clause f);
  check "unsat" true (Dpll.satisfiable f = None)

let test_cnf_bad_literal () =
  let f = Cnf.create () in
  check "raises" true
    (try
       Cnf.add_clause f [ 3 ];
       false
     with Invalid_argument _ -> true)

let test_cnf_eval () =
  let f = Cnf.create () in
  let a = Cnf.fresh_var f in
  let b = Cnf.fresh_var f in
  Cnf.add_clause f [ a; -b ];
  let assignment = Array.make 3 false in
  check "00 satisfies" true (Cnf.eval f assignment);
  assignment.(b) <- true;
  check "01 falsifies" false (Cnf.eval f assignment);
  assignment.(a) <- true;
  check "11 satisfies" true (Cnf.eval f assignment)

let test_cnf_exactly_one () =
  let f = Cnf.create () in
  let vs = List.init 4 (fun _ -> Cnf.fresh_var f) in
  Cnf.add_exactly_one f vs;
  match Dpll.satisfiable f with
  | None -> Alcotest.fail "should be satisfiable"
  | Some m ->
    check_int "exactly one true" 1
      (List.length (List.filter (fun v -> m.(v)) vs))

let test_dimacs_roundtrip () =
  let f = Cnf.create () in
  let a = Cnf.fresh_var f in
  let b = Cnf.fresh_var f in
  let c = Cnf.fresh_var f in
  Cnf.add_clause f [ a; -b ];
  Cnf.add_clause f [ b; c ];
  Cnf.add_clause f [ -a; -c ];
  let f' = Cnf.of_dimacs (Cnf.to_dimacs f) in
  check_int "vars" (Cnf.n_vars f) (Cnf.n_vars f');
  check_int "clauses" (Cnf.n_clauses f) (Cnf.n_clauses f');
  check "same satisfiability" true
    ((Dpll.satisfiable f = None) = (Dpll.satisfiable f' = None))

let test_dimacs_malformed () =
  List.iter
    (fun src ->
      check "raises" true
        (try
           ignore (Cnf.of_dimacs src);
           false
         with Invalid_argument _ -> true))
    [ "p cnf x 2\n1 0\n"; "p cnf 1 1\n2 0\n"; "p cnf 1 1\nfoo 0\n" ]

(* ---------------- DPLL ---------------- *)

let test_dpll_trivial () =
  let f = Cnf.create () in
  let a = Cnf.fresh_var f in
  Cnf.add_clause f [ a ];
  (match Dpll.solve f with
  | Dpll.Sat m, _ -> check "a true" true m.(a)
  | _ -> Alcotest.fail "expected sat");
  Cnf.add_clause f [ -a ];
  match Dpll.solve f with
  | Dpll.Unsat, _ -> ()
  | _ -> Alcotest.fail "expected unsat"

let test_dpll_implication_chain () =
  (* a, a->b, b->c, ..., forces all true *)
  let f = Cnf.create () in
  let vs = Array.init 20 (fun _ -> Cnf.fresh_var f) in
  Cnf.add_clause f [ vs.(0) ];
  for i = 0 to 18 do
    Cnf.add_clause f [ -vs.(i); vs.(i + 1) ]
  done;
  match Dpll.solve f with
  | Dpll.Sat m, st ->
    Array.iter (fun v -> check "implied" true m.(v)) vs;
    check "no decisions needed" true (st.Dpll.decisions = 0)
  | _ -> Alcotest.fail "expected sat"

let pigeonhole ~pigeons ~holes =
  let f = Cnf.create () in
  let var = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Cnf.fresh_var f)) in
  for p = 0 to pigeons - 1 do
    Cnf.add_clause f (Array.to_list var.(p))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Cnf.add_clause f [ -var.(p1).(h); -var.(p2).(h) ]
      done
    done
  done;
  f

let test_dpll_pigeonhole () =
  (match Dpll.solve (pigeonhole ~pigeons:5 ~holes:4) with
  | Dpll.Unsat, _ -> ()
  | _ -> Alcotest.fail "PHP(5,4) must be unsat");
  match Dpll.solve (pigeonhole ~pigeons:4 ~holes:4) with
  | Dpll.Sat m, _ ->
    check "model valid" true (Cnf.eval (pigeonhole ~pigeons:4 ~holes:4) m)
  | _ -> Alcotest.fail "PHP(4,4) must be sat"

let test_dpll_backtrack_limit () =
  match Dpll.solve ~backtrack_limit:2 (pigeonhole ~pigeons:7 ~holes:6) with
  | Dpll.Aborted Dpll.Backtrack_limit, st ->
    check "counted" true (st.Dpll.backtracks >= 2)
  | Dpll.Unsat, _ ->
    (* tiny instances may finish within the limit; force a bigger one *)
    Alcotest.fail "expected abort under a 2-backtrack budget"
  | _ -> Alcotest.fail "unexpected result"

let test_dpll_time_limit () =
  (* the deadline is checked before the first decision, so one that has
     already passed aborts every search root propagation cannot refute *)
  let deadline = Deadline.of_limit (Some (-1.0)) in
  match Dpll.solve ~deadline (pigeonhole ~pigeons:9 ~holes:8) with
  | Dpll.Aborted Dpll.Time_limit, _ -> ()
  | _ -> Alcotest.fail "unexpected result"

let brute f =
  let nv = Cnf.n_vars f in
  let a = Array.make (nv + 1) false in
  let rec go v =
    if v > nv then Cnf.eval f a
    else begin
      a.(v) <- false;
      if go (v + 1) then true
      else begin
        a.(v) <- true;
        go (v + 1)
      end
    end
  in
  go 1

let gen_cnf =
  let open QCheck.Gen in
  let* nv = int_range 3 9 in
  let* ncl = int_range 2 32 in
  let* clauses =
    list_repeat ncl
      (list_size (int_range 1 3)
         (let* v = int_range 1 nv in
          let* s = bool in
          return (if s then v else -v)))
  in
  return (nv, clauses)

let build_cnf (nv, clauses) =
  let f = Cnf.create () in
  ignore (Cnf.fresh_vars f nv);
  List.iter (Cnf.add_clause f) clauses;
  f

let prop_dpll_matches_brute =
  QCheck.Test.make ~name:"dpll agrees with brute force"
    ~count:(300 * Qseed.soak)
    (QCheck.make gen_cnf) (fun input ->
      let f = build_cnf input in
      match Dpll.solve f with
      | Dpll.Sat m, _ -> Cnf.eval f m && brute f
      | Dpll.Unsat, _ -> not (brute f)
      | Dpll.Aborted _, _ -> false)

let prop_walksat_models_valid =
  QCheck.Test.make ~name:"walksat models satisfy; finds sat instances"
    ~count:150 (QCheck.make gen_cnf) (fun input ->
      let f = build_cnf input in
      match Walksat.solve ~seed:7 f with
      | Some m, _ -> Cnf.eval f m
      | None, _ -> not (brute f))

let test_walksat_unsat_gives_up () =
  let f = pigeonhole ~pigeons:4 ~holes:3 in
  match Walksat.solve ~max_flips:500 ~max_tries:3 f with
  | None, st -> check "tried" true (st.Walksat.tries = 3)
  | Some _, _ -> Alcotest.fail "cannot satisfy unsat formula"

let test_walksat_deterministic () =
  let f = pigeonhole ~pigeons:4 ~holes:4 in
  let r1, _ = Walksat.solve ~seed:3 f in
  let r2, _ = Walksat.solve ~seed:3 f in
  check "same result for same seed" true (r1 = r2)

let () =
  Alcotest.run "sat"
    [
      ( "cnf",
        [
          Alcotest.test_case "build" `Quick test_cnf_build;
          Alcotest.test_case "tautology" `Quick test_cnf_tautology_dropped;
          Alcotest.test_case "duplicates" `Quick test_cnf_duplicate_literals;
          Alcotest.test_case "duplicate clause" `Quick test_cnf_duplicate_clause;
          Alcotest.test_case "empty clause" `Quick test_cnf_empty_clause;
          Alcotest.test_case "bad literal" `Quick test_cnf_bad_literal;
          Alcotest.test_case "eval" `Quick test_cnf_eval;
          Alcotest.test_case "exactly one" `Quick test_cnf_exactly_one;
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dimacs malformed" `Quick test_dimacs_malformed;
        ] );
      ( "dpll",
        [
          Alcotest.test_case "trivial" `Quick test_dpll_trivial;
          Alcotest.test_case "implication chain" `Quick
            test_dpll_implication_chain;
          Alcotest.test_case "pigeonhole" `Quick test_dpll_pigeonhole;
          Alcotest.test_case "backtrack limit" `Quick test_dpll_backtrack_limit;
          Alcotest.test_case "time limit" `Quick test_dpll_time_limit;
        ] );
      ( "walksat",
        [
          Alcotest.test_case "unsat gives up" `Quick test_walksat_unsat_gives_up;
          Alcotest.test_case "deterministic" `Quick test_walksat_deterministic;
        ] );
      ( "properties",
        [
          Qseed.to_alcotest prop_dpll_matches_brute;
          Qseed.to_alcotest prop_walksat_models_valid;
        ] );
    ]
