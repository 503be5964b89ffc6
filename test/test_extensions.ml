(* Tests for the extension components: the BDD package and its CNF
   solver, gate-level netlist export, and the speed-independence
   (persistency) checker. *)

let check = Alcotest.(check bool)


(* ---------------- Bdd ---------------- *)

let test_bdd_constants () =
  check "true" true (Bdd.is_true Bdd.bdd_true);
  check "false" true (Bdd.is_false Bdd.bdd_false);
  check "of_bool" true (Bdd.equal (Bdd.of_bool true) Bdd.bdd_true)

let test_bdd_var_ops () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  check "x and not x" true (Bdd.is_false (Bdd.band m x (Bdd.bnot m x)));
  check "x or not x" true (Bdd.is_true (Bdd.bor m x (Bdd.bnot m x)));
  check "idempotent and" true (Bdd.equal (Bdd.band m x x) x);
  check "commutative" true
    (Bdd.equal (Bdd.band m x y) (Bdd.band m y x));
  check "xor self" true (Bdd.is_false (Bdd.xor m x x));
  check "imp refl" true (Bdd.is_true (Bdd.imp m x x));
  check "nvar" true (Bdd.equal (Bdd.nvar m 0) (Bdd.bnot m x))

let test_bdd_hash_consing () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let a = Bdd.bor m (Bdd.band m x y) (Bdd.band m x y) in
  let b = Bdd.band m x y in
  check "structural sharing" true (Bdd.equal a b)

let test_bdd_restrict () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let f = Bdd.band m x y in
  check "f|x=1 = y" true (Bdd.equal (Bdd.restrict m f ~var:0 ~value:true) y);
  check "f|x=0 = 0" true
    (Bdd.is_false (Bdd.restrict m f ~var:0 ~value:false))

let test_bdd_any_sat () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  (match Bdd.any_sat m (Bdd.band m (Bdd.bnot m x) y) with
  | Some path ->
    check "x false" true (List.assoc 0 path = false);
    check "y true" true (List.assoc 1 path = true)
  | None -> Alcotest.fail "satisfiable");
  check "unsat none" true (Bdd.any_sat m Bdd.bdd_false = None);
  (* prefers the all-false corner *)
  match Bdd.any_sat m (Bdd.bor m x (Bdd.bnot m y)) with
  | Some path -> check "quiet model" true (List.for_all (fun (_, b) -> not b) path)
  | None -> Alcotest.fail "satisfiable"

let test_bdd_sat_count () =
  let m = Bdd.manager () in
  let x = Bdd.var m 0 and y = Bdd.var m 1 in
  let xor = Bdd.xor m x y in
  Alcotest.(check (float 0.001)) "xor has 2 models" 2.0 (Bdd.sat_count m ~n_vars:2 xor);
  Alcotest.(check (float 0.001)) "true has 8 models over 3 vars" 8.0
    (Bdd.sat_count m ~n_vars:3 Bdd.bdd_true)

(* property: BDD of a random CNF agrees with brute-force evaluation *)
let gen_cnf =
  let open QCheck.Gen in
  let* nv = int_range 2 6 in
  let* ncl = int_range 1 12 in
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

let prop_bdd_solver_correct =
  QCheck.Test.make ~name:"bdd solver agrees with dpll"
    ~count:(300 * Qseed.soak)
    (QCheck.make gen_cnf) (fun input ->
      let f = build_cnf input in
      match (Bdd_solver.solve f, Dpll.solve f) with
      | Bdd_solver.Sat m, _ -> Cnf.eval f m
      | Bdd_solver.Unsat, (Dpll.Unsat, _) -> true
      | Bdd_solver.Unsat, _ -> false
      | Bdd_solver.Blowup, _ -> true)

let prop_bdd_semantics =
  QCheck.Test.make ~name:"bdd eval matches cnf eval" ~count:200
    (QCheck.make gen_cnf) (fun (nv, clauses) ->
      let f = build_cnf (nv, clauses) in
      let m = Bdd.manager () in
      let product =
        Bdd.conj m
          (List.map
             (fun cl ->
               Bdd.disj m
                 (List.map
                    (fun l ->
                      if l > 0 then Bdd.var m l else Bdd.nvar m (-l))
                    cl))
             (Array.to_list (Cnf.clauses f) |> List.map Array.to_list))
      in
      let ok = ref true in
      for bits = 0 to (1 lsl nv) - 1 do
        let assignment = Array.make (nv + 1) false in
        for v = 1 to nv do
          assignment.(v) <- bits land (1 lsl (v - 1)) <> 0
        done;
        if Bdd.eval m product assignment <> Cnf.eval f assignment then ok := false
      done;
      !ok)

let test_bdd_solver_blowup () =
  (* a tiny node limit forces Blowup on anything non-trivial *)
  let f = build_cnf (6, [ [ 1; 2 ]; [ -3; 4 ]; [ 5; -6 ]; [ 2; 3; 5 ] ]) in
  match Bdd_solver.solve ~node_limit:2 f with
  | Bdd_solver.Blowup -> ()
  | _ -> Alcotest.fail "expected blowup"

(* ---------------- Netlist ---------------- *)

let sample_functions () =
  let stg =
    Stg_builder.(
      compile ~name:"pulse" ~inputs:[ "r" ] ~outputs:[ "a" ]
        (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))
  in
  let r = Mpart.synthesize stg in
  assert (Mpart.verify r = None);
  (r, Netlist.of_functions ~name:"pulse" ~inputs:[ "r" ] r.Mpart.functions)

let test_netlist_structure () =
  let _, nl = sample_functions () in
  check "has gates" true (Netlist.n_gates nl > 0);
  check "transistors counted" true (Netlist.n_transistors nl > 0);
  check "fanin sane" true (Netlist.max_fanin nl >= 1);
  Alcotest.(check (list string)) "inputs" [ "r" ] nl.Netlist.inputs

let contains_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_netlist_verilog () =
  let _, nl = sample_functions () in
  let v = Netlist.to_verilog nl in
  check "comment header" true (String.length v > 2 && String.sub v 0 2 = "//");
  check "module line" true (contains_sub v "module pulse");
  check "endmodule" true (contains_sub v "endmodule")

let test_netlist_eval_matches_covers () =
  let r, nl = sample_functions () in
  let expanded = r.Mpart.expanded in
  (* walk every reachable state: the netlist must compute the implied
     next value of every non-input signal *)
  let ok = ref true in
  for m = 0 to Sg.n_states expanded - 1 do
    let env =
      List.init (Sg.n_signals expanded) (fun s ->
          (Sg.signal_name expanded s, Sg.bit expanded m s))
    in
    let outs = Netlist.eval nl env in
    List.iter
      (fun (name, v) ->
        let s = Sg.find_signal expanded name in
        if v <> Sg.implied_value expanded m s then ok := false)
      outs
  done;
  check "netlist simulates the spec" true !ok

(* ---------------- Persistency ---------------- *)

let test_persistency_clean () =
  let stg =
    Stg_builder.(
      compile ~name:"hs" ~inputs:[ "r" ] ~outputs:[ "a" ]
        (seq [ plus "r"; plus "a"; minus "r"; minus "a" ]))
  in
  let sg = Sg.of_stg stg in
  check "semi modular" true (Persistency.is_semi_modular sg);
  Alcotest.(check (list int)) "no choice states" [] (Persistency.choice_states sg)

let test_persistency_choice_inputs () =
  let stg =
    Stg_builder.(
      compile ~name:"ch" ~inputs:[ "p"; "q" ] ~outputs:[ "x" ]
        (choice
           [
             seq [ plus "p"; plus "x"; minus "x"; minus "p" ];
             seq [ plus "q"; plus "x"; minus "x"; minus "q" ];
           ]))
  in
  let sg = Sg.of_stg stg in
  (* input choice is not a violation *)
  check "still semi modular" true (Persistency.is_semi_modular sg);
  check "choice state found" true (Persistency.choice_states sg <> [])

let test_persistency_violation () =
  (* two outputs in free choice: firing one disables the other *)
  (* a place feeding two output transitions: firing x+ disables y+ *)
  let src =
    ".model race\n.inputs go\n.outputs x y\n.graph\n\
     q go+\ngo+ p\np x+ y+\nx+ go-/1\ngo-/1 x-\nx- q\n\
     y+ go-/2\ngo-/2 y-\ny- q\n.marking { q }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  let sg = Sg.of_stg stg in
  check "violations found" true (not (Persistency.is_semi_modular sg));
  let v = List.hd (Persistency.violations sg) in
  check "message renders" true
    (String.length (Format.asprintf "%a" (Persistency.pp_violation sg) v) > 0)

let test_synthesized_results_semi_modular () =
  (* the expanded graphs of synthesized benchmarks stay semi-modular *)
  List.iter
    (fun name ->
      let e = Bench_suite.find name in
      let r = Mpart.synthesize (e.Bench_suite.build ()) in
      check (name ^ " expanded semi-modular") true
        (Persistency.is_semi_modular r.Mpart.expanded))
    [ "vbe-ex1"; "nousc-ser"; "wrdata" ]

let () =
  Alcotest.run "extensions"
    [
      ( "bdd",
        [
          Alcotest.test_case "constants" `Quick test_bdd_constants;
          Alcotest.test_case "var ops" `Quick test_bdd_var_ops;
          Alcotest.test_case "hash consing" `Quick test_bdd_hash_consing;
          Alcotest.test_case "restrict" `Quick test_bdd_restrict;
          Alcotest.test_case "any_sat" `Quick test_bdd_any_sat;
          Alcotest.test_case "sat_count" `Quick test_bdd_sat_count;
          Alcotest.test_case "solver blowup" `Quick test_bdd_solver_blowup;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "structure" `Quick test_netlist_structure;
          Alcotest.test_case "verilog" `Quick test_netlist_verilog;
          Alcotest.test_case "simulation" `Quick test_netlist_eval_matches_covers;
        ] );
      ( "persistency",
        [
          Alcotest.test_case "clean" `Quick test_persistency_clean;
          Alcotest.test_case "input choice" `Quick test_persistency_choice_inputs;
          Alcotest.test_case "violation" `Quick test_persistency_violation;
          Alcotest.test_case "synthesized" `Quick
            test_synthesized_results_semi_modular;
        ] );
      ( "properties",
        [
          Qseed.to_alcotest prop_bdd_solver_correct;
          Qseed.to_alcotest prop_bdd_semantics;
        ] );
    ]
