(* Integration tests for the modular partitioning core: input-set
   derivation, modular SAT, propagation, and the end-to-end synthesis
   driver. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let build name proc ~inputs ~outputs =
  Stg_builder.compile ~name ~inputs ~outputs proc

let pulse_stg () =
  Stg_builder.(
    build "pulse" ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))

let two_outputs_stg () =
  Stg_builder.(
    build "two" ~inputs:[ "r" ] ~outputs:[ "x"; "y" ]
      (seq
         [
           plus "r";
           par [ seq [ plus "x"; minus "x" ]; seq [ plus "y"; minus "y" ] ];
           minus "r";
         ]))

(* ---------------- Input derivation ---------------- *)

let test_triggers_exact () =
  let sg = Sg.of_stg (two_outputs_stg ()) in
  let x = Sg.find_signal sg "x" and r = Sg.find_signal sg "r" in
  (* only r's rise enables x+: y's firing never changes x's excitation *)
  Alcotest.(check (list int))
    "x triggered by r only" [ r ]
    (Input_derivation.triggers sg ~output:x)

let test_determine_hides_concurrent_branch () =
  let sg = Sg.of_stg (two_outputs_stg ()) in
  let x = Sg.find_signal sg "x" and y = Sg.find_signal sg "y" in
  let inp = Input_derivation.determine sg ~output:x in
  check "y hidden" true (not (List.mem y inp.Input_derivation.input_set));
  check "module smaller" true
    (Sg.n_states inp.Input_derivation.module_sg < Sg.n_states sg);
  (* the cover maps every state into the module *)
  check_int "cover total" (Sg.n_states sg)
    (Array.length inp.Input_derivation.cover)

let test_determine_homogeneity () =
  (* every module class must have one implied value of the output *)
  let sg = Sg.of_stg (two_outputs_stg ()) in
  let x = Sg.find_signal sg "x" in
  let inp = Input_derivation.determine sg ~output:x in
  let msg = inp.Input_derivation.module_sg in
  let mx = Sg.find_signal msg "x" in
  let value = Array.make (Sg.n_states msg) (-1) in
  for m = 0 to Sg.n_states sg - 1 do
    let c = inp.Input_derivation.cover.(m) in
    let v = if Sg.implied_value sg m x then 1 else 0 in
    if value.(c) < 0 then value.(c) <- v
    else check "homogeneous class" true (value.(c) = v)
  done;
  (* and the module's own implied values agree with the lift *)
  for c = 0 to Sg.n_states msg - 1 do
    if value.(c) >= 0 then
      check "module implication matches" true
        ((if Sg.implied_value msg c mx then 1 else 0) = value.(c))
  done

let test_determine_conflicts_preserved () =
  (* every output conflict of the complete graph must survive as a
     separable module conflict *)
  let sg = Sg.of_stg (two_outputs_stg ()) in
  let x = Sg.find_signal sg "x" in
  let inp = Input_derivation.determine sg ~output:x in
  let cover = inp.Input_derivation.cover in
  List.iter
    (fun (m, m') ->
      check "pair not merged" true (cover.(m) <> cover.(m')))
    (Csc.output_conflict_pairs sg ~output:x)

(* Candidate hides are decided on a state partition, and only the module
   itself is built: a derivation allocates about one quotient of the
   complete graph, not one per candidate signal. *)
let test_determine_allocation () =
  let sg = Sg.of_stg (Bench_gen.parallel_rings ~rings:5) in
  let allocated f =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.allocated_bytes () -. before
  in
  let quotient =
    allocated (fun () ->
        Sg.quotient sg ~keep_signal:(fun _ -> true) ~keep_extra:(fun _ -> true))
  in
  for o = 0 to Sg.n_signals sg - 1 do
    if Sg.non_input sg o then begin
      let bytes = allocated (fun () -> Input_derivation.determine sg ~output:o) in
      check
        (Printf.sprintf "%s: %.0f bytes <= 2 x %.0f" (Sg.signal_name sg o) bytes
           quotient)
        true
        (bytes <= 2. *. quotient)
    end
  done

(* ---------------- Modular SAT ---------------- *)

let test_modular_sat_pulse () =
  let sg = Sg.of_stg (pulse_stg ()) in
  let a = Sg.find_signal sg "a" in
  let inp = Input_derivation.determine sg ~output:a in
  let msg = inp.Input_derivation.module_sg in
  let ma = Sg.find_signal msg "a" in
  let r = Modular_sat.solve ~output:ma msg in
  match r.Modular_sat.outcome with
  | Modular_sat.Solved { module_sg; new_extras } ->
    check_int "one new signal" 1 (Array.length new_extras);
    check_int "output conflicts gone" 0
      (Csc.n_output_conflicts module_sg ~output:ma);
    check "formula recorded" true (List.length r.Modular_sat.formulas >= 1)
  | Modular_sat.Gave_up _ -> Alcotest.fail "pulse module must solve"

let test_modular_sat_no_conflicts () =
  let stg =
    Stg_builder.(
      build "hs" ~inputs:[ "r" ] ~outputs:[ "a" ]
        (seq [ plus "r"; plus "a"; minus "r"; minus "a" ]))
  in
  let sg = Sg.of_stg stg in
  let a = Sg.find_signal sg "a" in
  let r = Modular_sat.solve ~output:a sg in
  match r.Modular_sat.outcome with
  | Modular_sat.Solved { new_extras; _ } ->
    check_int "nothing inserted" 0 (Array.length new_extras);
    check_int "no formulas" 0 (List.length r.Modular_sat.formulas)
  | Modular_sat.Gave_up _ -> Alcotest.fail "trivial"

let test_modular_sat_signal_limit () =
  (* running out of state signals is not a solver budget: it must not
     be reported as a time limit when no time limit was set *)
  let sg = Sg.of_stg (pulse_stg ()) in
  let a = Sg.find_signal sg "a" in
  match (Modular_sat.solve ~max_new:0 ~output:a sg).Modular_sat.outcome with
  | Modular_sat.Gave_up Dpll.Signal_limit -> ()
  | Modular_sat.Gave_up r ->
    Alcotest.failf "wrong reason: %s" (Dpll.string_of_abort_reason r)
  | Modular_sat.Solved _ -> Alcotest.fail "cannot solve with zero signals"

(* CDCL decides before WalkSAT searches: on fifo's modules the
   one-signal encodings are unsatisfiable, and a refuted encoding must
   not cost a WalkSAT run.  Every engine call bumps [Counter.solver] and
   every CDCL call leaves one [solver_stats] entry, so the difference is
   the number of WalkSAT runs; each must have produced the model that
   [accept] then sees. *)
let test_modular_sat_unsat_skips_walksat () =
  let stg = Gformat.parse_file (Filename.concat ".." "data/fifo.g") in
  let sg = Sg.of_stg stg in
  let walksat_runs = ref 0 and proposed = ref 0 and formulas = ref 0 in
  for o = 0 to Sg.n_signals sg - 1 do
    if Sg.non_input sg o then begin
      let inp = Input_derivation.determine sg ~output:o in
      let msg = inp.Input_derivation.module_sg in
      let output = Sg.find_signal msg (Sg.signal_name sg o) in
      let models = ref 0 in
      let before = Counter.get Counter.solver in
      let r =
        Modular_sat.solve
          ~accept:(fun _ ->
            incr models;
            true)
          ~output msg
      in
      let calls = Counter.get Counter.solver - before in
      let cdcl_calls = List.length r.Modular_sat.solver_stats in
      walksat_runs := !walksat_runs + calls - cdcl_calls;
      proposed := !proposed + !models;
      formulas := !formulas + List.length r.Modular_sat.formulas
    end
  done;
  check_int "WalkSAT runs = models proposed" !proposed !walksat_runs;
  (* every formula that yielded no model was refuted by CDCL *)
  check "refuted encodings still listed" true (!formulas > !proposed)

(* ---------------- Propagation ---------------- *)

let test_propagate_lifts_cover () =
  let sg = Sg.of_stg (pulse_stg ()) in
  let a = Sg.find_signal sg "a" in
  let inp = Input_derivation.determine sg ~output:a in
  let msg = inp.Input_derivation.module_sg in
  let ma = Sg.find_signal msg "a" in
  match (Modular_sat.solve ~output:ma msg).Modular_sat.outcome with
  | Modular_sat.Gave_up _ -> Alcotest.fail "must solve"
  | Modular_sat.Solved { new_extras; _ } ->
    let x = new_extras.(0) in
    let lifted =
      Propagation.propagate sg ~cover:inp.Input_derivation.cover ~name:"n0"
        ~values:x.Sg.values
    in
    check_int "extra attached" 1 (Sg.n_extras lifted);
    (* lifted values are constant on cover classes *)
    let v = (Sg.extras lifted).(0).Sg.values in
    for m = 0 to Sg.n_states sg - 1 do
      check "class constant" true
        (Fourval.equal v.(m) x.Sg.values.(inp.Input_derivation.cover.(m)))
    done;
    check "complete conflicts resolved" true (Csc.csc_satisfied lifted)

let test_propagate_identity_cover () =
  (* degenerate single-output case: the module equals the complete
     graph, the cover is the identity, and propagation copies the
     module values verbatim *)
  let sg = Sg.of_stg (pulse_stg ()) in
  let cover = Array.init (Sg.n_states sg) Fun.id in
  let step m =
    match Sg.succ sg m with [ e ] -> e.Sg.dst | _ -> Alcotest.fail "det"
  in
  let m0 = Sg.initial sg in
  let m1 = step m0 in
  let m2 = step m1 in
  let m3 = step m2 in
  let values = Array.make 4 Fourval.V0 in
  values.(m0) <- Fourval.Dn;
  values.(m1) <- Fourval.V0;
  values.(m2) <- Fourval.Up;
  values.(m3) <- Fourval.V1;
  let lifted = Propagation.propagate sg ~cover ~name:"n" ~values in
  check_int "one extra" 1 (Sg.n_extras lifted);
  Array.iteri
    (fun m v -> check "value copied" true (Fourval.equal v values.(m)))
    (Sg.extras lifted).(0).Sg.values;
  check "resolves" true (Csc.csc_satisfied lifted)

let test_propagate_constant_cover () =
  (* the other degenerate case: a single-state module, so the cover is
     constant and the lift assigns one value everywhere *)
  let sg = Sg.of_stg (pulse_stg ()) in
  let cover = Array.make (Sg.n_states sg) 0 in
  let lifted = Propagation.propagate sg ~cover ~name:"n" ~values:[| Fourval.V1 |] in
  check_int "one extra" 1 (Sg.n_extras lifted);
  Array.iter
    (fun v -> check "constant V1" true (Fourval.equal v Fourval.V1))
    (Sg.extras lifted).(0).Sg.values;
  (* a stable constant is edge-consistent but separates nothing *)
  check_int "conflicts unchanged" (Csc.n_conflicts sg) (Csc.n_conflicts lifted)

let test_propagate_merged_cover () =
  (* hand-built merged-state cover: states 0 and 1 collapse into module
     state 0, so the lift must read values.(cover.(m)) — expected array
     written out by hand *)
  let sg =
    Sg.make ~name:"chain"
      ~signals:
        [|
          { Sg.sname = "r"; non_input = false };
          { Sg.sname = "x"; non_input = true };
        |]
      ~codes:[| 0b00; 0b01; 0b11; 0b10 |]
      ~edges:
        [
          { Sg.src = 0; label = Sg.Ev (0, Sg.R); dst = 1 };
          { Sg.src = 1; label = Sg.Ev (1, Sg.R); dst = 2 };
          { Sg.src = 2; label = Sg.Ev (0, Sg.F); dst = 3 };
        ]
      ~initial:0
  in
  let cover = [| 0; 0; 1; 2 |] in
  let values = [| Fourval.Up; Fourval.V1; Fourval.Dn |] in
  let lifted = Propagation.propagate sg ~cover ~name:"n" ~values in
  let expected = [| Fourval.Up; Fourval.Up; Fourval.V1; Fourval.Dn |] in
  Array.iteri
    (fun m v ->
      check
        (Printf.sprintf "state %d lifts to %s" m (Fourval.to_string expected.(m)))
        true
        (Fourval.equal v expected.(m)))
    (Sg.extras lifted).(0).Sg.values

let test_propagate_inconsistent () =
  (* edge-inconsistent lift must be rejected, not silently attached *)
  let sg = Sg.of_stg (pulse_stg ()) in
  let cover = Array.init (Sg.n_states sg) Fun.id in
  let values = Array.make 4 Fourval.V0 in
  values.(Sg.initial sg) <- Fourval.V1;
  check "raises" true
    (try
       ignore (Propagation.propagate sg ~cover ~name:"n" ~values);
       false
     with Sg.Inconsistent _ -> true)

(* ---------------- End-to-end ---------------- *)

let synthesize_ok stg =
  let r = Mpart.synthesize stg in
  (match Mpart.verify r with
  | None -> ()
  | Some e -> Alcotest.fail ("verify: " ^ e));
  r

let test_synthesize_pulse () =
  let r = synthesize_ok (pulse_stg ()) in
  check_int "one state signal" 1 (Mpart.n_state_signals r);
  check "expanded bigger" true (Mpart.final_states r > Mpart.initial_states r);
  check "area positive" true (Mpart.area_literals r > 0);
  check_int "modules reported" 1 (List.length r.Mpart.modules)

let test_synthesize_two_outputs () =
  let r = synthesize_ok (two_outputs_stg ()) in
  check_int "two modules" 2 (List.length r.Mpart.modules);
  check "solves" true (Csc.csc_satisfied r.Mpart.expanded)

let test_synthesize_no_conflict () =
  let stg =
    Stg_builder.(
      build "hs" ~inputs:[ "r" ] ~outputs:[ "a" ]
        (seq [ plus "r"; plus "a"; minus "r"; minus "a" ]))
  in
  let r = synthesize_ok stg in
  check_int "no state signals" 0 (Mpart.n_state_signals r);
  check_int "states unchanged" (Mpart.initial_states r) (Mpart.final_states r)

let test_synthesize_choice () =
  let stg =
    Stg_builder.(
      build "ch" ~inputs:[ "p"; "q" ] ~outputs:[ "x" ]
        (choice
           [
             seq [ plus "p"; plus "x"; minus "x"; minus "p" ];
             seq [ plus "q"; plus "x"; minus "x"; minus "q" ];
           ]))
  in
  ignore (synthesize_ok stg)

let test_synthesize_nonfc () =
  (* non-free-choice benchmark exercises the general-STG claim *)
  let entry = Bench_suite.find "alex-nonfc" in
  let stg = entry.Bench_suite.build () in
  check "not free choice" false (Petri.is_free_choice (Stg.net stg));
  ignore (synthesize_ok stg)

let test_synthesize_internal_signals () =
  let stg =
    Stg_builder.(
      compile ~name:"int" ~inputs:[ "r" ] ~outputs:[ "a" ] ~internal:[ "z" ]
        (seq [ plus "r"; plus "z"; plus "a"; minus "a"; minus "z"; minus "r" ]))
  in
  let r = synthesize_ok stg in
  (* internal signals also get implementations *)
  check "z implemented" true
    (List.exists (fun f -> f.Derive.name = "z") r.Mpart.functions)

let test_support_restriction () =
  (* each output's cover mentions only module-support signals *)
  let r = synthesize_ok (two_outputs_stg ()) in
  List.iter
    (fun (m : Mpart.module_report) ->
      match
        List.find_opt
          (fun f -> f.Derive.name = m.Mpart.output_name)
          r.Mpart.functions
      with
      | None -> Alcotest.fail "missing function"
      | Some f ->
        check "support is small" true
          (List.length f.Derive.support < Sg.n_signals r.Mpart.expanded))
    r.Mpart.modules

let test_reports_have_formulas () =
  let r = synthesize_ok (two_outputs_stg ()) in
  let with_conflicts =
    List.filter (fun m -> m.Mpart.module_conflicts > 0) r.Mpart.modules
  in
  check "some module had conflicts" true (List.length with_conflicts >= 1);
  (* at least one conflicted module actually went to the solver *)
  check "formulas recorded" true
    (List.exists
       (fun m -> List.length m.Mpart.formulas >= 1)
       with_conflicts);
  List.iter
    (fun m ->
      (* the others must be duplicate cones replayed from that solve *)
      check "solved or replayed" true
        (List.length m.Mpart.formulas >= 1
        || List.mem m.Mpart.output_name r.Mpart.replayed))
    with_conflicts

let test_hazard_free_config () =
  let config = { Mpart.default_config with hazard_free = true } in
  let r = Mpart.synthesize ~config (two_outputs_stg ()) in
  (match Mpart.verify r with None -> () | Some e -> Alcotest.fail e);
  List.iter
    (fun f ->
      check_int "no static-1 hazards" 0
        (List.length (Hazard.static_one_hazards r.Mpart.expanded f)))
    r.Mpart.functions

let test_budget_abort () =
  (* budgets bound the DPLL unsat prover; with no signals allowed at all
     the engine must give up cleanly *)
  let sg = Sg.of_stg (pulse_stg ()) in
  (match
     (Modular_sat.solve_pairs ~max_new:0 ~resolve:(Csc.conflict_pairs sg) sg)
       .Modular_sat.outcome
   with
  | Modular_sat.Gave_up _ -> ()
  | Modular_sat.Solved _ -> Alcotest.fail "cannot solve with zero signals");
  (* and a tiny backtrack limit must still synthesize correctly, because
     the WalkSAT front end needs no backtracking on satisfiable modules *)
  let r =
    Mpart.synthesize
      ~config:{ Mpart.default_config with backtrack_limit = Some 1 }
      (pulse_stg ())
  in
  check "still correct" true (Mpart.verify r = None)

(* [time_limit] is one wall-clock deadline for the whole run, whatever
   the pool width: at zero seconds the first module's DPLL search finds
   it already passed (CDCL checks before its first decision), at one
   job and at two alike. *)
let test_time_limit_any_jobs () =
  let stg = Gformat.parse_file (Filename.concat ".." "data/vbe4a.g") in
  List.iter
    (fun jobs ->
      let config =
        {
          Mpart.default_config with
          time_limit = Some 0.0;
          backend = `Dpll;
          jobs;
        }
      in
      match Mpart.synthesize ~config stg with
      | _ -> Alcotest.failf "jobs %d: synthesized in zero seconds" jobs
      | exception Mpart.Synthesis_failed msg ->
        if not (String.ends_with ~suffix:": SAT time limit exceeded" msg) then
          Alcotest.failf "jobs %d: failure does not name the time limit: %s"
            jobs msg)
    [ 1; 2 ]

(* ---------------- Portfolio: shared plan and tails ---------------- *)

let data_stg f =
  Gformat.parse_file (Filename.concat ".." (Filename.concat "data" f))

(* Counter proof of one insertion: [synthesize_best] is [synthesize],
   so it calls the constraint engines exactly as often.  A second
   insertion would call them again for every conflicted module. *)
let test_one_insertion () =
  let solves f =
    let before = Counter.get Counter.solver in
    ignore (f ());
    Counter.get Counter.solver - before
  in
  let config = { Mpart.default_config with jobs = 1 } in
  List.iter
    (fun file ->
      let stg = data_stg file in
      let single = solves (fun () -> Mpart.synthesize ~config stg) in
      check (file ^ ": synthesize solves") true (single > 0);
      check_int (file ^ ": synthesize_best solves") single
        (solves (fun () -> Mpart.synthesize_best ~config stg)))
    [ "fifo.g"; "mr0.g" ]

let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

let read_file f =
  let ic = open_in_bin f in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let run_cli ?(env = "") args =
  let out = Filename.temp_file "mpsyn_mpart" ".out" in
  let err = Filename.temp_file "mpsyn_mpart" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s %s > %s 2> %s" env mpsyn args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

(* The first module to solve gives up, and its message is the whole
   report at any --jobs. *)
let test_cli_failure () =
  List.iter
    (fun jobs ->
      let code, _, stderr =
        run_cli
          (Printf.sprintf "synth --time-limit 0.000001 --jobs %d ../data/fifo.g"
             jobs)
      in
      check_int "synthesis failure exits 1" 1 code;
      Alcotest.(check string)
        "the module's failure"
        "mpsyn: synthesis gave up: module ro: SAT time limit exceeded\n" stderr)
    [ 1; 2 ]

(* MPSYN_LOG raises the Logs level: Mpart's debug lines reach stderr,
   stdout keeps every byte, and a malformed value is a usage error. *)
let test_cli_log_level () =
  List.iter
    (fun file ->
      let args = "verilog ../data/" ^ file in
      let _, quiet, _ = run_cli args in
      let code, loud, stderr = run_cli ~env:"MPSYN_LOG=debug" args in
      check_int (file ^ ": exit 0") 0 code;
      Alcotest.(check string) (file ^ ": stdout unchanged") quiet loud;
      let line =
        Printf.sprintf "reachability: explicit engine, %d states (threshold %d)"
          (Sg.n_states (Sg.of_stg (data_stg file)))
          Mpart.engine_threshold
      in
      check (file ^ ": " ^ line) true
        (List.exists
           (String.ends_with ~suffix:line)
           (String.split_on_char '\n' stderr)))
    [ "fifo.g"; "wrdata.g" ];
  let code, stdout, stderr =
    run_cli ~env:"MPSYN_LOG=loud" "verilog ../data/fifo.g"
  in
  check_int "malformed MPSYN_LOG exits 2" 2 code;
  Alcotest.(check string) "nothing on stdout" "" stdout;
  check "message names the variable" true
    (String.starts_with ~prefix:"mpsyn: MPSYN_LOG" stderr)

let test_fallback_orphan_conflict () =
  (* a conflict pair that no output module claims: both states imply
     identical values for every output, so the per-output passes skip
     it (zero output conflicts) and the global fallback must fire.
     The cycle fires r,a twice with an extra x covering only the first
     lap: the two 10-coded states disagree only on x's excitation. *)
  let src =
    ".model orphan\n.inputs r\n.outputs a\n.graph\n\
     r~ a~\na~ r~/2\nr~/2 a~/2\na~/2 r~/3\nr~/3 a~/3\na~/3 r~/4\n\
     r~/4 a~/4\na~/4 r~\n.marking { <a~/4,r~> }\n.end\n"
  in
  let sg = Sg.of_stg (Gformat.parse_string src) in
  check_int "eight states" 8 (Sg.n_states sg);
  let step m =
    match Sg.succ sg m with [ e ] -> e.Sg.dst | _ -> Alcotest.fail "det"
  in
  let order = Array.make 8 0 in
  let m = ref (Sg.initial sg) in
  for i = 0 to 7 do
    order.(i) <- !m;
    m := step !m
  done;
  let fire_values =
    [|
      Fourval.V0; Fourval.Up; Fourval.V1; Fourval.Dn;
      Fourval.V0; Fourval.V0; Fourval.V0; Fourval.V0;
    |]
  in
  let values = Array.make 8 Fourval.V0 in
  Array.iteri (fun i s -> values.(s) <- fire_values.(i)) order;
  let sg = Sg.add_extra sg ~name:"x" ~values in
  check_int "no output conflicts" 0
    (Csc.n_output_conflicts sg ~output:(Sg.find_signal sg "a"));
  check_int "one orphan pair" 1 (List.length (Csc.orphan_conflict_pairs sg));
  let r = Mpart.synthesize_sg sg in
  check "fallback fired" true (r.Mpart.fallback <> None);
  check "verifies" true (Mpart.verify r = None)

let test_state_cap () =
  check "reachability cap surfaces" true
    (try
       ignore
         (Mpart.synthesize
            ~config:{ Mpart.default_config with max_states = 2 }
            (two_outputs_stg ()));
       false
     with Reach.Too_many_states _ -> true)

(* The paper's headline claim as a regression test: on the largest
   benchmark the modular method finishes promptly while the direct
   single-formula method cannot even live inside a generous backtrack
   budget.  If either half regresses, the reproduction has lost the
   paper's Table 1 shape. *)
let test_headline_claim () =
  let stg = (Bench_suite.find "mr0").Bench_suite.build () in
  let t0 = Sys.time () in
  let r = Mpart.synthesize stg in
  check "modular verifies" true (Mpart.verify r = None);
  check "modular is fast" true (Sys.time () -. t0 < 10.0);
  let sg = Sg.of_stg stg in
  match
    (Csc_direct.solve ~backtrack_limit:300_000 ~time_limit:10.0 sg)
      .Csc_direct.outcome
  with
  | Csc_direct.Gave_up _ -> ()
  | Csc_direct.Solved _ ->
    Alcotest.fail
      "direct method solved mr0 inside a small budget: Table 1's shape is gone"

(* property: on the generated pipeline family, modular synthesis always
   converges, satisfies CSC after expansion, and the implementation
   matches every state *)
let prop_pipeline_family =
  QCheck.Test.make ~name:"modular synthesis correct on pipeline family"
    ~count:5
    QCheck.(int_range 1 4)
    (fun stages ->
      let r = Mpart.synthesize (Bench_gen.pipeline ~stages) in
      Mpart.verify r = None)

let prop_pulser_family =
  QCheck.Test.make ~name:"modular synthesis correct on pulser family"
    ~count:3
    QCheck.(int_range 1 3)
    (fun branches ->
      let r = Mpart.synthesize (Bench_gen.concurrent_pulsers ~branches) in
      Mpart.verify r = None)

let () =
  Alcotest.run "mpart"
    [
      ( "input derivation",
        [
          Alcotest.test_case "triggers" `Quick test_triggers_exact;
          Alcotest.test_case "hides concurrency" `Quick
            test_determine_hides_concurrent_branch;
          Alcotest.test_case "homogeneity" `Quick test_determine_homogeneity;
          Alcotest.test_case "conflicts preserved" `Quick
            test_determine_conflicts_preserved;
          Alcotest.test_case "allocation" `Quick test_determine_allocation;
        ] );
      ( "modular sat",
        [
          Alcotest.test_case "pulse" `Quick test_modular_sat_pulse;
          Alcotest.test_case "no conflicts" `Quick test_modular_sat_no_conflicts;
          Alcotest.test_case "signal limit" `Quick test_modular_sat_signal_limit;
          Alcotest.test_case "unsat encodings skip WalkSAT" `Quick
            test_modular_sat_unsat_skips_walksat;
        ] );
      ( "propagation",
        [
          Alcotest.test_case "lifts cover" `Quick test_propagate_lifts_cover;
          Alcotest.test_case "identity cover" `Quick
            test_propagate_identity_cover;
          Alcotest.test_case "constant cover" `Quick
            test_propagate_constant_cover;
          Alcotest.test_case "merged-state cover" `Quick
            test_propagate_merged_cover;
          Alcotest.test_case "inconsistent lift" `Quick
            test_propagate_inconsistent;
        ] );
      ( "synthesis",
        [
          Alcotest.test_case "pulse" `Quick test_synthesize_pulse;
          Alcotest.test_case "two outputs" `Quick test_synthesize_two_outputs;
          Alcotest.test_case "no conflict" `Quick test_synthesize_no_conflict;
          Alcotest.test_case "choice" `Quick test_synthesize_choice;
          Alcotest.test_case "non free choice" `Quick test_synthesize_nonfc;
          Alcotest.test_case "internal signals" `Quick
            test_synthesize_internal_signals;
          Alcotest.test_case "support restriction" `Quick
            test_support_restriction;
          Alcotest.test_case "reports" `Quick test_reports_have_formulas;
          Alcotest.test_case "hazard-free config" `Quick test_hazard_free_config;
          Alcotest.test_case "budget abort" `Quick test_budget_abort;
          Alcotest.test_case "orphan conflict fallback" `Quick
            test_fallback_orphan_conflict;
          Alcotest.test_case "state cap" `Quick test_state_cap;
          Alcotest.test_case "headline claim (Table 1 shape)" `Slow
            test_headline_claim;
          Alcotest.test_case "time limit at any jobs" `Quick
            test_time_limit_any_jobs;
        ] );
      ( "one flow",
        [
          Alcotest.test_case "one insertion" `Quick test_one_insertion;
          Alcotest.test_case "failure message" `Quick test_cli_failure;
          Alcotest.test_case "MPSYN_LOG level" `Quick test_cli_log_level;
        ] );
      ( "properties",
        [
          Qseed.to_alcotest prop_pipeline_family;
          Qseed.to_alcotest prop_pulser_family;
        ] );
    ]
