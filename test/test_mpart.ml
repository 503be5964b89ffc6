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
        Sg_ref.quotient sg ~keep_signal:(fun _ -> true) ~keep_extra:(fun _ -> true))
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

(* One context serves every output: over all outputs of parsed
   parallel_rings-6 (15,624 states), the context and the six
   derivations together allocate a few words per state and output — the
   cover each derivation returns, its module and the context's arrays
   shared six ways — where a derivation that rebuilt its own edge index,
   view and scratch arrays allocated about 20. *)
let test_determine_context_allocation () =
  let stg = Gformat.parse_string (Gformat.to_string (Bench_gen.parallel_rings ~rings:6)) in
  let sg = Sg.of_stg stg in
  let outputs = List.filter (Sg.non_input sg) (List.init (Sg.n_signals sg) Fun.id) in
  let before = Gc.allocated_bytes () in
  let modules =
    let context = Input_derivation.context sg in
    List.map (fun o -> Input_derivation.determine_in context sg ~output:o) outputs
  in
  let words = (Gc.allocated_bytes () -. before) /. float (Sys.word_size / 8) in
  ignore (Sys.opaque_identity modules);
  let per = words /. float (Sg.n_states sg * List.length outputs) in
  check (Printf.sprintf "%.1f words per state and output <= 10" per) true (per <= 10.)

(* A context indexes one graph's states and edges: a graph that does not
   share them — even an equal rebuild of the same specification — is
   refused rather than read through the wrong index, and so is an input
   signal. *)
let test_determine_context_mismatch () =
  let stg = two_outputs_stg () in
  let sg = Sg.of_stg stg in
  let context = Input_derivation.context sg in
  let x = Sg.find_signal sg "x" and r = Sg.find_signal sg "r" in
  let refused f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check "a rebuilt graph is refused" true
    (refused (fun () -> Input_derivation.determine_in context (Sg.of_stg stg) ~output:x));
  check "another graph is refused" true
    (refused (fun () ->
         Input_derivation.determine_in context (Sg.of_stg (pulse_stg ())) ~output:0));
  check "an input signal is refused" true
    (refused (fun () -> Input_derivation.determine_in context sg ~output:r));
  let grown =
    Sg.add_extra sg ~name:"z" ~values:(Array.make (Sg.n_states sg) Fourval.V0)
  in
  check "a graph grown by add_extra is served" true
    ((Input_derivation.determine_in context grown ~output:x).Input_derivation.input_set
    = (Input_derivation.determine grown ~output:x).Input_derivation.input_set)

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
    if Sg.out_degree sg m <> 1 then Alcotest.fail "det";
    let d = ref (-1) in
    Sg.iter_succ sg m (fun e -> d := Sg.edge_dst sg e);
    !d
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
      ~src:[| 0; 1; 2 |]
      ~lab:[| Sg.label_code 0 Sg.R; Sg.label_code 1 Sg.R; Sg.label_code 0 Sg.F |]
      ~dst:[| 1; 2; 3 |]
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

(* Counter proof of one materialization: every implementability check
   is decided on the folded graph, so a synthesis that ends at repair
   round 0 with no global redo expands exactly once, the graph [Derive]
   reads. *)
let test_expand_once () =
  List.iter
    (fun (what, stg) ->
      let before = Counter.get Counter.expansion in
      let r = Mpart.synthesize stg in
      check (what ^ ": no global redo") true
        (match r.Mpart.fallback with
        | Some f -> f.Mpart.output_name <> "<global redo>"
        | None -> true);
      check_int (what ^ ": expansions") 1
        (Counter.get Counter.expansion - before))
    [
      ("mixed 3x3", Bench_gen.mixed ~stages:3 ~branches:3);
      ("pulsers 5", Bench_gen.concurrent_pulsers ~branches:5);
    ]

(* The implementation stage of one synthesis, observed from outside:
   its [minimized extra] debug lines, parsed as (index, lifted,
   candidate, visits, verdict), its [expansion] line, and the
   implementability decisions it made. *)
type implementation_trace = {
  result : Mpart.result;
  extras : (int * int * int * int * string) list;
  expansion : string list;
  decisions : int;
}

let trace_implementation stg =
  let lines = ref [] in
  let capture src level ~over k msgf =
    if Logs.Src.name src = "mpsyn.mpart" && level = Logs.Debug then
      msgf (fun ?header:_ ?tags:_ fmt ->
          Format.kasprintf
            (fun line ->
              lines := line :: !lines;
              over ();
              k ())
            fmt)
    else begin
      over ();
      k ()
    end
  in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_reporter { Logs.report = capture };
  Logs.set_level (Some Logs.Debug);
  let before = Counter.get Counter.implementability in
  let result =
    Fun.protect
      ~finally:(fun () ->
        Logs.set_reporter reporter;
        Logs.set_level level)
      (fun () -> Mpart.synthesize stg)
  in
  let decisions = Counter.get Counter.implementability - before in
  let lines = List.rev !lines in
  let extras =
    List.filter_map
      (fun line ->
        try
          Some
            (Scanf.sscanf line
               "minimized extra %d (%_[^)]): excited states %d -> %d (%d visits), %[a-z]"
               (fun i lifted candidate visits verdict ->
                 (i, lifted, candidate, visits, verdict)))
        with Scanf.Scan_failure _ | End_of_file -> None)
      lines
  in
  let expansion = List.filter (String.starts_with ~prefix:"expansion:") lines in
  { result; extras; expansion; decisions }

let parsed_stg stg =
  Gformat.parse_string ~name:(Stg.name stg) (Gformat.to_string stg)

let expand_j2_traces =
  lazy
    (List.map
       (fun (what, stg) -> (what, trace_implementation (parsed_stg stg)))
       [
         ("pulsers 5", Bench_gen.concurrent_pulsers ~branches:5);
         ("mixed 3x3", Bench_gen.mixed ~stages:3 ~branches:3);
       ])

(* The implementation stage costs its work, counted rather than timed:
   one folded decision per state signal (the minimized labeling is the
   last accepted candidate, so it is not checked again), and a region minimizer that
   examines each excited state a bounded number of times per extra. *)
let test_implementation_work () =
  List.iter
    (fun (what, t) ->
      let final = t.result.Mpart.final in
      let n = Sg.n_states final in
      check_int (what ^ ": one decision per extra") (Sg.n_extras final)
        t.decisions;
      check_int (what ^ ": a line per extra") (Sg.n_extras final)
        (List.length t.extras);
      List.iter
        (fun (i, _, _, visits, _) ->
          if visits > 3 * n then
            Alcotest.failf "%s: extra %d took %d visits over %d states" what i
              visits n)
        t.extras)
    (Lazy.force expand_j2_traces)

(* Under the certificate (CSC on Σ) no module solves, so the graph
   implemented is Σ itself: one implementability decision, which decides
   semi-modularity alone, and no state signal. *)
let test_certified_decision () =
  List.iter
    (fun (what, stg) ->
      let before = Counter.get Counter.implementability in
      let r = Mpart.synthesize stg in
      check (what ^ ": certified") true r.Mpart.certificate;
      check_int (what ^ ": one decision") 1
        (Counter.get Counter.implementability - before);
      check_int (what ^ ": no state signal") 0 (Mpart.n_state_signals r))
    [
      ("lock_ring-5", Bench_gen.lock_ring ~signals:5);
      ("parallel_rings-5", Bench_gen.parallel_rings ~rings:5);
    ]

(* Logic derivation allocates per distinct code, not per state and
   signal: on the expanded graph of parsed pulsers-5 (14,408 states,
   10 functions), with the supports synthesis proposes, words are
   minor + major - promoted, after a minor collection.  When these
   bounds were set [Derive.synthesize] took 15.6 words per expanded
   state and [Derive.check] 2; sorting and projecting each signal's
   full codes took about 275 and 115. *)
let test_derive_allocation () =
  let r = (List.assoc "pulsers 5" (Lazy.force expand_j2_traces)).result in
  let ex = r.Mpart.expanded in
  let support_of = Derive_ref.module_supports r in
  let per_state f =
    let words () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    Gc.minor ();
    let before = words () in
    ignore (Sys.opaque_identity (f ()));
    (words () -. before) /. float (Sg.n_states ex)
  in
  let fs = Derive.synthesize ~support_of ex in
  let synthesize = per_state (fun () -> Derive.synthesize ~support_of ex) in
  let verify = per_state (fun () -> Derive.check fs ex) in
  Printf.printf "pulsers-5: synthesize %.2f, check %.2f words per expanded state\n"
    synthesize verify;
  if synthesize > 40. then
    Alcotest.failf "Derive.synthesize allocated %.2f words per state" synthesize;
  if verify > 8. then
    Alcotest.failf "Derive.check allocated %.2f words per state" verify

(* Under MPSYN_LOG=debug the implementation stage reports, per extra,
   the excited states it lifted and the minimized candidate's, and the
   verdict; then the expansion's size. *)
let test_implementation_lines () =
  let expect what t rows size =
    Alcotest.(check (list (triple int int string)))
      (what ^ ": lifted -> candidate, verdict")
      rows
      (List.map (fun (_, l, c, _, v) -> (l, c, v)) t.extras);
    Alcotest.(check (list int))
      (what ^ ": extras in order")
      (List.init (List.length rows) Fun.id)
      (List.map (fun (i, _, _, _, _) -> i) t.extras);
    Alcotest.(check (list string))
      (what ^ ": the expansion")
      [ Printf.sprintf "expansion: %d states" size ]
      t.expansion
  in
  let traces = Lazy.force expand_j2_traces in
  let accepted = (1876, 1250, "accepted") in
  expect "pulsers 5"
    (List.assoc "pulsers 5" traces)
    [ accepted; accepted; accepted; accepted; (1876, 626, "accepted") ]
    14408;
  let kept = (322, 50, "accepted") and lost = (322, 35, "rejected") in
  expect "mixed 3x3"
    (List.assoc "mixed 3x3" traces)
    [ kept; kept; lost; kept; kept; lost; kept; kept; lost ]
    4680

(* [final] is the graph that was expanded, and it is implementable: the
   implementation stage judges the minimized labeling once and expands
   the graph that passed, once.  The one net whose minimized labeling
   fails is [steal] (an input can withdraw the output's excitation, so
   its spec is itself not semi-modular): it goes through the global
   redo, whose graph is then [final]. *)
let steal_stg () =
  Stg_builder.(
    compile ~name:"steal" ~inputs:[ "b" ] ~outputs:[ "x" ]
      (choice [ seq [ plus "x"; minus "x" ]; seq [ plus "b"; minus "b" ] ]))

let test_final_expanded () =
  let data =
    Sys.readdir (Filename.concat ".." "data")
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.sort compare
    |> List.map (fun f -> (f, data_stg f))
  in
  List.iter
    (fun (what, stg) ->
      let r = Mpart.synthesize stg in
      Alcotest.(check string)
        (what ^ ": expanded = expand final")
        (Sg.digest r.Mpart.expanded)
        (Sg.digest (Sg_expand.expand r.Mpart.final));
      let redo =
        match r.Mpart.fallback with
        | Some f -> f.Mpart.output_name = "<global redo>"
        | None -> false
      in
      check (what ^ ": global redo") (what = "steal") redo;
      if what <> "steal" then
        check (what ^ ": final implementable") true
          (Sg_expand.implementable r.Mpart.final))
    (data
    @ [
        ("pulsers 5", parsed_stg (Bench_gen.concurrent_pulsers ~branches:5));
        ("mixed 3x3", parsed_stg (Bench_gen.mixed ~stages:3 ~branches:3));
        ("parrings 6", parsed_stg (Bench_gen.parallel_rings ~rings:6));
        ("steal", steal_stg ());
      ])

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
   report at any MPSYN_JOBS. *)
let test_cli_failure () =
  List.iter
    (fun jobs ->
      let code, _, stderr =
        run_cli
          ~env:(Printf.sprintf "MPSYN_JOBS=%d" jobs)
          "synth --time-limit 0.000001 ../data/fifo.g"
      in
      check_int "synthesis failure exits 1" 1 code;
      Alcotest.(check string)
        "the module's failure"
        "mpsyn: synthesis gave up: module ro: SAT time limit exceeded\n" stderr)
    [ 1; 2 ]

(* An STG without a consistent state assignment (r rises twice in a
   row) passes structural lint, but every command that builds Σ rejects
   it with exit 3 and one line naming the signal. *)
let incons_g =
  ".model incons\n.inputs r\n.outputs x\n.graph\nr+ x+\nx+ r+/2\n\
   r+/2 x-\nx- r-\nr- r-/2\nr-/2 r+\n.marking { <r-/2,r+> }\n.end\n"

let test_cli_inconsistent () =
  let file = Filename.temp_file "mpsyn_incons" ".g" in
  Out_channel.with_open_bin file (fun oc -> output_string oc incons_g);
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun cmd ->
          let code, stdout, stderr = run_cli (cmd ^ " " ^ Filename.quote file) in
          check_int (cmd ^ ": exit 3") 3 code;
          Alcotest.(check string) (cmd ^ ": nothing on stdout") "" stdout;
          check (cmd ^ ": the message names the signal") true
            (String.starts_with
               ~prefix:"mpsyn: no consistent state assignment: signal r "
               stderr))
        [ "verilog"; "lint --partition" ])

(* The same net under `lint --prefix`: the prefix sweep finds no
   consistent state assignment, and U3 reports the message the
   Σ-building commands print as an error, so lint exits 3 too. *)
let test_cli_lint_prefix_inconsistent () =
  let file = Filename.temp_file "mpsyn_incons" ".g" in
  Out_channel.with_open_bin file (fun oc -> output_string oc incons_g);
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let message =
        match Sg.of_stg (Gformat.parse_string incons_g) with
        | _ -> Alcotest.fail "Sg.of_stg must reject the net"
        | exception Sg.Inconsistent msg -> msg
      in
      let code, stdout, _ = run_cli ("lint --prefix " ^ Filename.quote file) in
      check_int "lint --prefix: exit 3" 3 code;
      let line = "error[U3-coding] incons: no consistent state assignment: " ^ message in
      check ("lint --prefix prints " ^ line) true
        (List.mem line (String.split_on_char '\n' stdout)))

(* A state code is one native int, so Σ holds at most 62 visible
   signals.  A sequential ring of 63 (each rises in turn, then each
   falls) is consistent but one signal too wide: both engines refuse it
   with the cap as the message, and so do the Σ-building commands (exit
   3) and lint's U3 rule. *)
let ring63_g =
  let sigs = List.init 63 (Printf.sprintf "s%d") in
  let events = List.map (fun s -> s ^ "+") sigs @ List.map (fun s -> s ^ "-") sigs in
  let next = List.tl events @ [ List.hd events ] in
  String.concat "\n"
    ([ ".model ring63"; ".inputs s0"; ".outputs " ^ String.concat " " (List.tl sigs);
       ".graph" ]
    @ List.map2 (fun a b -> a ^ " " ^ b) events next
    @ [ ".marking { <s62-,s0+> }"; ".end"; "" ])

let test_signal_cap () =
  let cap = "more than 62 visible signals" in
  let stg = Gformat.parse_string ring63_g in
  List.iter
    (fun (name, backend) ->
      match Sg.of_stg ~backend stg with
      | _ -> Alcotest.failf "%s: Sg.of_stg must refuse 63 signals" name
      | exception Sg.Inconsistent msg ->
        Alcotest.(check string) (name ^ ": the cap is the message") cap msg)
    [ ("explicit", `Explicit); ("symbolic", `Symbolic) ];
  let file = Filename.temp_file "mpsyn_ring63" ".g" in
  Out_channel.with_open_bin file (fun oc -> output_string oc ring63_g);
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let code, stdout, stderr = run_cli ("verilog " ^ Filename.quote file) in
      check_int "verilog: exit 3" 3 code;
      Alcotest.(check string) "verilog: nothing on stdout" "" stdout;
      Alcotest.(check string)
        "verilog: the cap on stderr"
        ("mpsyn: no consistent state assignment: " ^ cap ^ "\n")
        stderr;
      let code, stdout, _ = run_cli ("lint --prefix " ^ Filename.quote file) in
      check_int "lint --prefix: exit 3" 3 code;
      let line = "error[U3-coding] ring63: no consistent state assignment: " ^ cap in
      check ("lint --prefix prints " ^ line) true
        (List.mem line (String.split_on_char '\n' stdout)))

(* MPSYN_LOG raises the Logs level: the library's debug lines reach stderr,
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
        let n, _, _ = Sg.reachable (data_stg file) in
        Printf.sprintf "reachability: explicit engine, %d states" n
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

(* A conflict pair that no output module claims: both states imply
   identical values for every output, so the per-output passes skip it
   (zero output conflicts) and the global fallback must fire.  The cycle
   fires r,a twice with an extra x covering only the first lap: the two
   10-coded states disagree only on x's excitation. *)
let orphan_sg () =
  let src =
    ".model orphan\n.inputs r\n.outputs a\n.graph\n\
     r~ a~\na~ r~/2\nr~/2 a~/2\na~/2 r~/3\nr~/3 a~/3\na~/3 r~/4\n\
     r~/4 a~/4\na~/4 r~\n.marking { <a~/4,r~> }\n.end\n"
  in
  let sg = Sg.of_stg (Gformat.parse_string src) in
  check_int "eight states" 8 (Sg.n_states sg);
  let step m =
    if Sg.out_degree sg m <> 1 then Alcotest.fail "det";
    let d = ref (-1) in
    Sg.iter_succ sg m (fun e -> d := Sg.edge_dst sg e);
    !d
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
  Sg.add_extra sg ~name:"x" ~values

let test_fallback_orphan_conflict () =
  let sg = orphan_sg () in
  check_int "no output conflicts" 0
    (Csc.n_output_conflicts sg ~output:(Sg.find_signal sg "a"));
  check_int "one orphan pair" 1 (List.length (Csc.orphan_conflict_pairs sg));
  let r = Mpart.synthesize_sg sg in
  check "fallback fired" true (r.Mpart.fallback <> None);
  check "verifies" true (Mpart.verify r = None)

(* The fallback's own give-up message: with no time at all, the DPLL
   backend cannot separate the orphan pair. *)
let test_fallback_gives_up () =
  Alcotest.check_raises "budget message"
    (Mpart.Synthesis_failed "global cleanup pass exhausted its SAT budget")
    (fun () ->
      ignore
        (Mpart.synthesize_sg
           ~config:
             {
               Mpart.default_config with
               backend = `Dpll;
               time_limit = Some 0.0;
             }
           (orphan_sg ())))

(* Synthesis builds Σ under [Mpart.state_cap]: parallel_rings-8 has
   390,626 markings, and the sweep refuses it at the first marking past
   the cap. *)
let test_state_cap () =
  Alcotest.(check (option int))
    "reachability cap surfaces" (Some Mpart.state_cap)
    (match Mpart.synthesize (Bench_gen.parallel_rings ~rings:8) with
    | _ -> None
    | exception Reach.Too_many_states n -> Some n)

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

(* ---------------- determine against its reference ---------------- *)

(* [Input_derivation.determine], which contracts to each accepted hide's
   classes, against [Determine_ref], which tests every hide on the
   complete graph's states and builds the module by one [Sg_ref.quotient]:
   every field agrees for every output.  [context] indexes the complete
   graph [sg] is or was grown from, as in [Mpart]. *)
let check_determine_ref context name sg =
  for o = 0 to Sg.n_signals sg - 1 do
    if Sg.non_input sg o then begin
      let a = Input_derivation.determine_in context sg ~output:o in
      let b = Determine_ref.determine sg ~output:o in
      let tag field = Printf.sprintf "%s/%s: %s" name (Sg.signal_name sg o) field in
      let open Input_derivation in
      Alcotest.(check (list int)) (tag "input set") b.input_set a.input_set;
      Alcotest.(check (list int)) (tag "immediate") b.immediate a.immediate;
      Alcotest.(check (list string)) (tag "kept extras") b.kept_extras a.kept_extras;
      Alcotest.(check string) (tag "module") (Sg.digest b.module_sg)
        (Sg.digest a.module_sg);
      Alcotest.(check (array int)) (tag "cover") b.cover a.cover
    end
  done

(* The graphs the insertion re-analyzes carry state signals: Figure 6's
   loop replayed in [Mpart]'s plan order (each module solved with the
   driver's acceptance test and propagated into the complete graph),
   each output's derivation checked against the reference on the graph
   it meets.  Duplicate cones are solved again rather than replayed.
   Returns how many of those graphs carried state signals. *)
let check_determine_ref_insertion name stg =
  let sg = Sg.of_stg stg in
  let context = Input_derivation.context sg in
  let r = Mpart.synthesize stg in
  let counter = ref 0 and with_extras = ref 0 in
  ignore
    (List.fold_left
       (fun g (m : Mpart.module_report) ->
         let o = Sg.find_signal g m.Mpart.output_name in
         if Sg.n_extras g > 0 then incr with_extras;
         check_determine_ref context
           (Printf.sprintf "%s+%d" name (Sg.n_extras g))
           g;
         let inp = Input_derivation.determine_in context g ~output:o in
         let msg = inp.Input_derivation.module_sg in
         let mo = Sg.find_signal msg m.Mpart.output_name in
         if r.Mpart.certificate || Csc.n_output_conflicts msg ~output:mo = 0 then g
         else
           let baseline = Sg_expand.n_violations msg in
           match
             (Modular_sat.solve
                ~accept:(fun solved -> Sg_expand.n_violations solved <= baseline)
                ~output:mo msg)
               .Modular_sat.outcome
           with
           | Modular_sat.Gave_up _ -> g
           | Modular_sat.Solved { new_extras; _ } ->
             Array.fold_left
               (fun g (x : Sg.extra) ->
                 incr counter;
                 Propagation.propagate g ~cover:inp.Input_derivation.cover
                   ~name:(Printf.sprintf "t%d" !counter) ~values:x.Sg.values)
               g new_extras)
       sg r.Mpart.modules);
  !with_extras

let test_determine_reference () =
  let data_dir = Filename.concat ".." "data" in
  let files =
    Sys.readdir data_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.sort compare
  in
  let generated =
    [
      ("parallel_rings-5", Bench_gen.parallel_rings ~rings:5);
      ("parallel_rings-6", Bench_gen.parallel_rings ~rings:6);
      ("pulsers-5", Bench_gen.concurrent_pulsers ~branches:5);
      ("mixed-3x3", Bench_gen.mixed ~stages:3 ~branches:3);
      ("lock_ring-5", Bench_gen.lock_ring ~signals:5);
      ("pipeline-4", Bench_gen.pipeline ~stages:4);
    ]
  in
  let nets = List.map (fun f -> (f, data_stg f)) files @ generated in
  List.iter
    (fun (name, stg) ->
      let sg = Sg.of_stg stg in
      check_determine_ref (Input_derivation.context sg) name sg)
    nets;
  let rand = Qseed.state () in
  for i = 1 to 50 * Qseed.soak do
    match Sg.of_stg (Bench_gen.random ~rand) with
    | sg ->
      check_determine_ref (Input_derivation.context sg)
        (Printf.sprintf "random %d" i)
        sg
    | exception Sg.Inconsistent _ -> ()
  done;
  let with_extras =
    List.fold_left
      (fun k (name, stg) -> k + check_determine_ref_insertion name stg)
      0
      (List.filter
         (fun (name, _) ->
           name = "pulsers-5" || name = "mixed-3x3" || Filename.check_suffix name ".g")
         nets)
  in
  check (Printf.sprintf "%d re-analyzed graphs carry state signals" with_extras)
    true (with_extras > 0)

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
          Alcotest.test_case "determine = reference" `Slow
            test_determine_reference;
          Alcotest.test_case "allocation with one context" `Quick
            test_determine_context_allocation;
          Alcotest.test_case "context of another graph" `Quick
            test_determine_context_mismatch;
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
          Alcotest.test_case "fallback gives up" `Quick test_fallback_gives_up;
        ] );
      ( "one flow",
        [
          Alcotest.test_case "one insertion" `Quick test_one_insertion;
          Alcotest.test_case "failure message" `Quick test_cli_failure;
          Alcotest.test_case "MPSYN_LOG level" `Quick test_cli_log_level;
          Alcotest.test_case "inconsistent STG exits 3" `Quick
            test_cli_inconsistent;
          Alcotest.test_case "lint --prefix rejects an inconsistent STG" `Quick
            test_cli_lint_prefix_inconsistent;
          Alcotest.test_case "one expansion" `Quick test_expand_once;
          Alcotest.test_case "63 signals exceed the cap" `Quick test_signal_cap;
          Alcotest.test_case "final is what was expanded" `Quick
            test_final_expanded;
          Alcotest.test_case "implementation work is counted" `Quick
            test_implementation_work;
          Alcotest.test_case "implementation debug lines" `Quick
            test_implementation_lines;
          Alcotest.test_case "certified: one decision" `Quick
            test_certified_decision;
          Alcotest.test_case "derive allocation" `Quick test_derive_allocation;
        ] );
      ( "properties",
        [
          Qseed.to_alcotest prop_pipeline_family;
          Qseed.to_alcotest prop_pulser_family;
        ] );
    ]
