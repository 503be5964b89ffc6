(* mpsyn — modular partitioning synthesis of asynchronous circuits.

   Subcommands:
     info       parse an STG and report structure / CSC statistics
     synth      synthesize (modular | direct | sequential), print circuit
     bench      run one named benchmark through all three methods
     list       list the built-in benchmarks
     gen        emit a generated STG family member as .g text
     dot        emit the state graph in Graphviz dot syntax
     verilog    synthesize and emit a structural Verilog netlist
     verify     conformance oracle: simulate the synthesized netlist
                against the STG under adversarial delays; --fuzz runs
                the differential harness across all solver backends *)

open Cmdliner

(* Exit-code discipline (documented in every subcommand's man page):
   0 success; 1 synthesis failure or abort; 2 usage / input errors;
   3 lint rejected the specification, or it has no consistent state
   assignment; 4 verification failure;
   5 static hazard analysis refuted speed independence (with a
   replayable counterexample — stronger than a mere lint rejection);
   6 the reachability state budget was exhausted (raise --max-states
   or synthesize module-by-module). *)
let exit_usage = 2
let exit_lint = 3
let exit_verification = 4
let exit_refuted = 5
let exit_budget = 6

let exits =
  [
    Cmd.Exit.info 0 ~doc:"on success.";
    Cmd.Exit.info 1 ~doc:"on synthesis failure (exhausted SAT budget or abort).";
    Cmd.Exit.info exit_usage
      ~doc:"on command-line errors or unreadable/unknown STG inputs.";
    Cmd.Exit.info exit_lint
      ~doc:
        "when static analysis rejects the specification: structural lint \
         errors, with $(b,--prefix) also exact partial-order refutations \
         (U1 unsafeness, U2 autoconcurrency) carrying a replayable firing \
         sequence, and with $(b,--partition) also partition-plan \
         refutations (M1 non-closed input sets, M5 inconsistent quotients) \
         carrying the witnessing signal chain; with $(b,--strict), \
         warnings too.  Also when the STG admits no consistent state \
         assignment, which every command that builds the state graph \
         reports.";
    Cmd.Exit.info exit_verification
      ~doc:"when verification of a synthesized circuit fails.";
    Cmd.Exit.info exit_refuted
      ~doc:
        "when the static hazard rules (H1-H5) refute speed independence \
         with a replayable gate-level counterexample.";
    Cmd.Exit.info exit_budget
      ~doc:
        "when reachability exploration exhausts the state budget (more \
         reachable markings than the exploration cap; the message \
         carries the budget).";
  ]

(* Every subcommand that explores a state space runs under this guard:
   exceeding the cap is a budget exhaustion, not a crash, and exits
   with the documented code and the budget in the message — the same
   [Reach.Too_many_states] contract whichever engine explored.  A SAT
   give-up exits 1, naming the bound that ran out.  An STG without a
   consistent state assignment is a rejected specification (exit 3). *)
let guard_budget f =
  try f () with
  | Reach.Too_many_states budget ->
    Printf.eprintf
      "mpsyn: state budget exhausted: more than %d reachable markings (the \
       exploration cap; raise it with --max-states where available)\n"
      budget;
    exit exit_budget
  | Mpart.Synthesis_failed msg ->
    Printf.eprintf "mpsyn: synthesis gave up: %s\n" msg;
    exit 1
  | Sg.Inconsistent msg ->
    Printf.eprintf "mpsyn: no consistent state assignment: %s\n" msg;
    exit exit_lint

(* [load_stg_spans] keeps the source map when the STG comes from a .g
   file, so diagnostics can point into the text. *)
let load_stg_spans path_or_name =
  if Sys.file_exists path_or_name then begin
    match Gformat.parse_file_spans path_or_name with
    | stg, map -> (stg, Some map)
    | exception Gformat.Parse_error msg ->
      Printf.eprintf "mpsyn: %s: %s\n" path_or_name msg;
      exit exit_usage
  end
  else
    match List.assoc_opt path_or_name Bench_data.all with
    | Some build -> (build (), None)
    | None ->
      Printf.eprintf "mpsyn: no such file or benchmark: %s\n" path_or_name;
      exit exit_usage

let load_stg path_or_name = fst (load_stg_spans path_or_name)

(* Shared fail-fast pre-pass for synthesis commands: reject structurally
   broken STGs (rules A1–A5) before any state graph is built. *)
let lint_gate ~skip name =
  if not skip then begin
    let stg, map = load_stg_spans name in
    let { Lint.report; _ } = Lint.run ?map stg in
    if not (Diagnostic.clean report) then begin
      Format.eprintf "%a" Diagnostic.pp report;
      Format.eprintf
        "mpsyn: %s rejected by static analysis (run `mpsyn lint %s` for \
         details, or pass --no-lint to force)@."
        (Stg.name stg) name;
      exit exit_lint
    end
  end

let no_lint_arg =
  let doc = "Skip the static-analysis pre-pass (rules A1-A5)." in
  Arg.(value & flag & info [ "no-lint" ] ~doc)

let jobs_arg =
  let doc =
    "Width of the domain pool over the input files (lint) or the fuzz \
     cases (verify); each synthesis runs on one domain.  $(b,1) forces \
     the fully sequential path; results are bit-identical for any \
     width.  Defaults to $(b,MPSYN_JOBS) or the machine's recommended \
     domain count."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* [--jobs 0] (or negative, or a malformed MPSYN_JOBS) is a usage
   error: exit 2 per the documented exit-code discipline. *)
let resolve_jobs = function
  | Some n when n >= 1 ->
    Pool.set_default_jobs n;
    n
  | Some n ->
    Printf.eprintf "mpsyn: --jobs must be a positive integer (got %d)\n" n;
    exit exit_usage
  | None -> (
    match Sys.getenv_opt "MPSYN_JOBS" with
    | None | Some "" -> Pool.default_jobs ()
    | Some s -> (
      match Pool.jobs_of_string s with
      | Some n ->
        Pool.set_default_jobs n;
        n
      | None ->
        Printf.eprintf
          "mpsyn: MPSYN_JOBS must be a positive integer (got %s)\n" s;
        exit exit_usage))

let cache_arg =
  let doc =
    "Content-addressed synthesis cache directory (created if missing).  \
     Whole results — synthesis, the state graph, the prefix summary, the \
     partition audit, conformance explorations — are memoized on disk \
     under keys derived from the canonical .g text and the \
     synthesis options, so a warm re-run replays the cold results \
     bit for bit.  Defaults to $(b,MPSYN_CACHE) when set; hit/miss \
     counts are reported on stderr."
  in
  Arg.(value & opt (some string) None & info [ "cache" ] ~docv:"DIR" ~doc)

(* [--cache DIR] wins over a non-empty [MPSYN_CACHE]; either way the
   store is opened eagerly, so a directory that cannot be created fails
   fast with exit 2 and a message naming where it came from. *)
let resolve_cache flag =
  let source =
    match (flag, Sys.getenv_opt "MPSYN_CACHE") with
    | Some dir, _ -> Some ("--cache " ^ dir, dir)
    | None, (None | Some "") -> None
    | None, Some dir -> Some ("MPSYN_CACHE=" ^ dir, dir)
  in
  Option.map
    (fun (what, dir) ->
      match Cache_store.open_dir dir with
      | store -> store
      | exception Sys_error msg ->
        Printf.eprintf "mpsyn: %s: %s\n" what msg;
        exit exit_usage)
    source

let report_cache = function
  | None -> ()
  | Some store ->
    Printf.eprintf "mpsyn: cache %d hits, %d misses (%s)\n"
      (Counter.get Counter.cache_hit)
      (Counter.get Counter.cache_miss)
      (Cache_store.dir store)

let stg_arg =
  let doc = "STG file in .g format, or the name of a built-in benchmark." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STG" ~doc)

let method_arg =
  let doc =
    "Synthesis method: $(b,modular) (the paper's partitioning approach), \
     $(b,direct) (Vanbekbergen-style single SAT formula), or \
     $(b,sequential) (Lavagno-style one-signal-at-a-time insertion)."
  in
  Arg.(
    value
    & opt (enum [ ("modular", `Modular); ("direct", `Direct); ("sequential", `Sequential) ]) `Modular
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let backtrack_arg =
  let doc = "Abort a SAT search after this many backtracks." in
  Arg.(value & opt (some int) None & info [ "backtrack-limit" ] ~doc)

let time_arg =
  let doc = "Abort after this many wall-clock seconds for the whole run." in
  Arg.(value & opt (some float) None & info [ "time-limit" ] ~doc)

let hazard_arg =
  let doc = "Enlarge covers to remove static-1 hazards." in
  Arg.(value & flag & info [ "hazard-free" ] ~doc)

let backend_arg =
  let doc =
    "Constraint engine for the modular method: $(b,sat) (WalkSAT + DPLL), \
     $(b,dpll) (systematic search only), or $(b,bdd) (symbolic, falls back \
     to SAT on blowup)."
  in
  Arg.(
    value
    & opt (enum [ ("sat", `Sat); ("dpll", `Dpll); ("bdd", `Bdd) ]) `Sat
    & info [ "backend" ] ~docv:"ENGINE" ~doc)

let celements_arg =
  let doc =
    "Also print the set/reset (generalised C-element) decomposition of \
     each output."
  in
  Arg.(value & flag & info [ "celements" ] ~doc)

(* ------------------------------------------------------------------ *)

let lint_cmd =
  let stgs_arg =
    let doc = "STG files in .g format, or built-in benchmark names." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"STG" ~doc)
  in
  let json_arg =
    let doc = "Emit the report(s) as a machine-readable JSON document." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let strict_arg =
    let doc = "Treat warnings as rejections (exit 3)." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let netlist_arg =
    let doc =
      "Additionally synthesize each lint-clean STG and run the structural \
       netlist rules (A7) over the generated circuit."
    in
    Arg.(value & flag & info [ "netlist" ] ~doc)
  in
  let hazard_arg =
    let doc =
      "Run the symbolic speed-independence rules (H1-H5) over each \
       synthesized netlist; requires $(b,--netlist).  A replayable \
       refutation exits $(b,5)."
    in
    Arg.(value & flag & info [ "hazard" ] ~doc)
  in
  let prefix_arg =
    let doc =
      "Additionally run the exact rules U1-U4: exact 1-safeness (proof or \
       replayable refutation) and exact autoconcurrency (retiring A5's \
       false alarms) from a complete finite prefix of the STG's \
       unfolding, then, once the prefix is complete, exact USC/CSC \
       conflict detection and the exact state-graph size from the state \
       graph every command builds (up to 262,144 markings).  Findings \
       merge into the same mpsyn-lint/1 report; U1/U2 refutations and an \
       inconsistent state assignment (U3) exit $(b,3)."
    in
    Arg.(value & flag & info [ "prefix" ] ~doc)
  in
  let partition_arg =
    let doc =
      "Additionally audit the modular partition plan with the static M \
       rules: M1 input-set closure (independently re-derived triggers), \
       M2 degenerate-module forecast, M3 exact duplicate cones via a \
       canonical cone digest, M4 propagation-conflict risk (discounted \
       by the lock relation), and M5 quotient consistency.  Findings \
       merge into the same mpsyn-lint/1 report; M1/M5 refutations exit \
       $(b,3)."
    in
    Arg.(value & flag & info [ "partition" ] ~doc)
  in
  let degenerate_arg =
    let doc =
      "M2 threshold: warn when a conflicted module's cone covers at \
       least this fraction of all signals (used with $(b,--partition))."
    in
    Arg.(
      value
      & opt float 0.9
      & info [ "degenerate-threshold" ] ~docv:"FRAC" ~doc)
  in
  let plan_arg =
    let doc =
      "Write the machine-readable partition plan (schema mpsyn-plan/1: \
       per-cone stats and digests, duplicate groups, overlap matrix, \
       solve order, violations) to $(docv); one JSON document per input, \
       several inputs become a JSON array.  Implies $(b,--partition)."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"FILE" ~doc)
  in
  let run names json strict netlist hazard prefix partition degenerate plan
      jobs_opt cache_opt =
    guard_budget @@ fun () ->
    let jobs = resolve_jobs jobs_opt in
    let cache = resolve_cache cache_opt in
    let partition = partition || plan <> None in
    if hazard && not netlist then begin
      Printf.eprintf "mpsyn lint: --hazard requires --netlist\n";
      exit exit_usage
    end;
    let rejected = ref false and refuted = ref false in
    let jsons = ref [] in
    let consume report =
      if json then jsons := Diagnostic.to_json report :: !jsons
      else Format.printf "%a" Diagnostic.pp report;
      if
        if strict then not (Diagnostic.strict_clean report)
        else not (Diagnostic.clean report)
      then rejected := true
    in
    (* Inputs load in this domain (load errors exit with the usage
       code); the analyses — and with [--netlist] the synthesis runs —
       fan out over the pool, and reports print in input order.  The
       netlist (A7) and hazard (H1-H5) findings for a circuit are merged
       into one canonically ordered report, so the rendering is
       bit-identical for any --jobs width. *)
    let specs = List.map (fun name -> (name, load_stg_spans name)) names in
    let results =
      Pool.map_list ~jobs
        (fun (name, (stg, map)) ->
          let config = { Mpart.default_config with cache } in
          (* one prefix per specification, shared by the U-rules and the
             A5 exact oracle, and cached by the .g text *)
          let psum =
            if prefix then Some (Mpart.prefix_summary config stg)
            else None
          in
          (* likewise one partition audit per specification, cached by
             the .g text *)
          let plan_summary =
            if partition then Some (Mpart.partition_summary config stg)
            else None
          in
          let { Lint.report; _ } = Lint.run ?map ?prefix:psum stg in
          let report =
            match plan_summary with
            | None -> report
            | Some s ->
              let target = report.Diagnostic.target in
              Diagnostic.merge ~target
                [
                  report;
                  Diagnostic.report ~target
                    (Lint.partition ?map ~degenerate_threshold:degenerate stg
                       s);
                ]
          in
          let netrep =
            if netlist && Diagnostic.clean report then begin
              match Mpart.synthesize ~config stg with
              | r ->
                let inputs =
                  List.map (Stg.signal_name stg) (Stg.inputs stg)
                in
                let nl =
                  Netlist.of_functions ~name:(Stg.name stg) ~inputs
                    r.Mpart.functions
                in
                let a7 = Lint.run_netlist nl in
                if hazard then begin
                  let hz =
                    Hazard_check.analyze ~expanded:r.Mpart.expanded
                      ~functions:r.Mpart.functions nl
                  in
                  let merged =
                    Diagnostic.merge ~target:a7.Diagnostic.target
                      [
                        a7;
                        Diagnostic.report ~target:a7.Diagnostic.target
                          hz.Hazard_check.diags;
                      ]
                  in
                  Some (Ok (merged, Some hz))
                end
                else Some (Ok (a7, None))
              | exception Mpart.Synthesis_failed msg -> Some (Error msg)
            end
            else None
          in
          (name, report, plan_summary, netrep))
        specs
    in
    List.iter
      (fun (name, report, _, netrep) ->
        consume report;
        match netrep with
        | None -> ()
        | Some (Ok (r, hz)) ->
          consume r;
          (match hz with
          | Some hz when Hazard_check.refuted hz -> refuted := true
          | _ -> ())
        | Some (Error msg) ->
          Printf.eprintf
            "mpsyn lint: %s: synthesis failed (%s); netlist rules skipped\n"
            name msg)
      results;
    (* one input renders as its document, several as an array *)
    let document = function [ one ] -> one | many -> Json.List many in
    if json then print_endline (Json.to_string (document (List.rev !jsons)));
    (match plan with
    | None -> ()
    | Some file ->
      let docs =
        List.filter_map
          (fun (_, _, s, _) -> Option.map Partition_check.to_json s)
          results
      in
      let oc = open_out file in
      output_string oc (Json.to_string (document docs));
      output_char oc '\n';
      close_out oc);
    report_cache cache;
    if !refuted then exit_refuted else if !rejected then exit_lint else 0
  in
  Cmd.v
    (Cmd.info "lint" ~exits
       ~doc:
         "Statically analyze an STG (and optionally its synthesized \
          netlist) without explicit state exploration; $(b,--prefix) adds \
          the exact rules U1-U4 of the unfolding prefix and the state \
          graph, $(b,--partition) the partition-plan rules M1-M5")
    Term.(
      const run $ stgs_arg $ json_arg $ strict_arg $ netlist_arg $ hazard_arg
      $ prefix_arg $ partition_arg $ degenerate_arg $ plan_arg $ jobs_arg
      $ cache_arg)

let info_cmd =
  let run stg_name =
    guard_budget @@ fun () ->
    let stg = load_stg stg_name in
    Format.printf "%a@." Stg.pp stg;
    let issues = Stg.validate stg in
    if issues = [] then Format.printf "validation: ok@."
    else
      List.iter
        (fun i -> Format.printf "validation: %a@." (Stg.pp_issue stg) i)
        issues;
    (match Invariants.p_invariants (Stg.net stg) with
    | invs ->
      Format.printf "place invariants: %d%s@." (List.length invs)
        (if Invariants.covered (Stg.net stg) invs then
           " (net structurally bounded)"
         else "");
      List.iter
        (fun i -> Format.printf "  %a@." (Invariants.pp (Stg.net stg)) i)
        invs
    | exception Invariants.Too_many _ ->
      Format.printf "place invariants: (too many to enumerate)@.");
    let sg = Sg.of_stg stg in
    Format.printf "%a@." Csc.pp_summary sg;
    Format.printf "state-signal lower bound: %d@." (Csc.lower_bound sg);
    List.iter
      (fun o ->
        Format.printf "triggers(%s) = {%s}@." (Sg.signal_name sg o)
          (String.concat ", "
             (List.map (Sg.signal_name sg)
                (Input_derivation.triggers sg ~output:o))))
      (List.filter (Sg.non_input sg) (List.init (Sg.n_signals sg) Fun.id));
    0
  in
  Cmd.v (Cmd.info "info" ~exits ~doc:"Report STG structure and CSC statistics")
    Term.(const run $ stg_arg)

let print_functions fs =
  List.iter (fun f -> Format.printf "  %a@." Derive.pp_func f) fs

(* Wall time goes to stderr, so stdout stays byte-stable across runs
   and warm or cold caches. *)
let timed what f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.eprintf "mpsyn: %s in %.3fs\n%!" what (Unix.gettimeofday () -. t0);
  r

let synth_cmd =
  let run stg_name method_ backtrack_limit time_limit hazard_free backend
      celements no_lint cache_opt =
    guard_budget @@ fun () ->
    let cache = resolve_cache cache_opt in
    lint_gate ~skip:no_lint stg_name;
    let stg = load_stg stg_name in
    match method_ with
    | `Modular ->
      let config =
        {
          Mpart.default_config with
          backtrack_limit;
          time_limit;
          hazard_free;
          backend;
          cache;
        }
      in
      let r = timed "synthesized" (fun () -> Mpart.synthesize ~config stg) in
      Format.printf "%a@." Mpart.pp_report r;
      print_functions r.Mpart.functions;
      Format.printf "speed independence: %s@."
        (if Persistency.is_semi_modular r.Mpart.expanded then "semi-modular"
         else "VIOLATED");
      if celements then begin
        let cs = Celement.decompose_all r.Mpart.expanded in
        Format.printf "C-element decomposition (%d literals):@."
          (Celement.total_literals cs);
        List.iter (fun c -> Format.printf "  %a@." Celement.pp c) cs;
        match Celement.verify r.Mpart.expanded cs with
        | [] -> ()
        | errs -> List.iter (Format.printf "  !! %s@.") errs
      end;
      report_cache cache;
      (match Mpart.verify r with
      | None -> Format.printf "verification: ok@."; 0
      | Some e -> Format.printf "verification: %s@." e; exit_verification)
    | `Direct -> (
      let sg = Sg.of_stg stg in
      let print_formulas r =
        List.iter
          (fun (f : Csc_direct.formula_size) ->
            Format.printf "formula: %d vars, %d clauses@." f.vars f.clauses)
          r.Csc_direct.formulas
      in
      match
        timed "direct CSC solve finished" (fun () ->
            Direct_method.synthesize ?backtrack_limit ?time_limit sg)
      with
      | Either.Right (reason, r) ->
        print_formulas r;
        Format.printf "direct method aborted (%s)@."
          (Dpll.string_of_abort_reason reason);
        1
      | Either.Left (expanded, fs, r) ->
        print_formulas r;
        Format.printf
          "direct: %d -> %d states, %d -> %d signals, %d literals@."
          (Sg.n_states sg) (Sg.n_states expanded) (Sg.n_signals sg)
          (Sg.n_signals expanded)
          (Derive.total_literals fs);
        print_functions fs;
        0)
    | `Sequential -> (
      let sg = Sg.of_stg stg in
      match
        timed "sequential insertion finished" (fun () ->
            Sequential_insertion.synthesize ?backtrack_limit ?time_limit sg)
      with
      | Either.Right reason ->
        Format.printf "sequential method aborted (%s)@."
          (Dpll.string_of_abort_reason reason);
        1
      | Either.Left (expanded, fs, _) ->
        Format.printf
          "sequential: %d -> %d states, %d -> %d signals, %d literals@."
          (Sg.n_states sg) (Sg.n_states expanded) (Sg.n_signals sg)
          (Sg.n_signals expanded)
          (Derive.total_literals fs);
        print_functions fs;
        0)
  in
  Cmd.v
    (Cmd.info "synth" ~exits ~doc:"Synthesize a speed-independent circuit from an STG")
    Term.(
      const run $ stg_arg $ method_arg $ backtrack_arg $ time_arg $ hazard_arg
      $ backend_arg $ celements_arg $ no_lint_arg $ cache_arg)

let bench_cmd =
  let run stg_name =
    guard_budget @@ fun () ->
    let stg = load_stg stg_name in
    let sg = Sg.of_stg stg in
    Format.printf "%a@." Csc.pp_summary sg;
    let row name synth =
      let t0 = Unix.gettimeofday () in
      match synth () with
      | Some (signals, states, area) ->
        Format.printf "%-11s %3d signals, %4d states, area %4d, %6.3fs@."
          (name ^ ":") signals states area (Unix.gettimeofday () -. t0)
      | None ->
        Format.printf "%-11s aborted after %6.3fs@." (name ^ ":")
          (Unix.gettimeofday () -. t0)
    in
    let baseline = function
      | Either.Left (expanded, fs, _) ->
        Some
          (Sg.n_signals expanded, Sg.n_states expanded, Derive.total_literals fs)
      | Either.Right _ -> None
    in
    row "modular" (fun () ->
        let r = Mpart.synthesize stg in
        Some (Mpart.final_signals r, Mpart.final_states r, Mpart.area_literals r));
    row "direct" (fun () ->
        baseline
          (Direct_method.synthesize ~backtrack_limit:2_000_000 ~time_limit:60.0
             sg));
    row "sequential" (fun () ->
        baseline
          (Sequential_insertion.synthesize ~backtrack_limit:2_000_000
             ~time_limit:60.0 sg));
    0
  in
  Cmd.v
    (Cmd.info "bench" ~exits ~doc:"Compare the three methods on one benchmark")
    Term.(const run $ stg_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (e : Bench_suite.entry) ->
        Printf.printf "%-16s %4d states, %2d signals (Table 1)\n"
          e.Bench_suite.name e.Bench_suite.paper.Bench_suite.initial_states
          e.Bench_suite.paper.Bench_suite.initial_signals)
      Bench_suite.all;
    0
  in
  Cmd.v
    (Cmd.info "list" ~exits ~doc:"List the built-in benchmark reconstructions")
    Term.(const run $ const ())

let gen_cmd =
  let family =
    let doc =
      "Family: pipeline, pulsers, mixed, lockring, or parrings \
       (independent four-phase rings — CSC holds on the state graph, so \
       synthesis skips SAT, although the A6 lock relation abstains)."
    in
    Arg.(
      required
      & pos 0
          (some
             (enum
                [
                  ("pipeline", `P);
                  ("pulsers", `C);
                  ("mixed", `M);
                  ("lockring", `L);
                  ("parrings", `R);
                ]))
          None
      & info [] ~docv:"FAMILY" ~doc)
  in
  let n_arg =
    Arg.(value & opt int 2 & info [ "n" ] ~docv:"N" ~doc:"size parameter")
  in
  let k_arg =
    Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"branch parameter")
  in
  let run fam n k =
    let stg =
      match fam with
      | `P -> Bench_gen.pipeline ~stages:n
      | `C -> Bench_gen.concurrent_pulsers ~branches:k
      | `M -> Bench_gen.mixed ~stages:n ~branches:k
      | `L -> Bench_gen.lock_ring ~signals:n
      | `R -> Bench_gen.parallel_rings ~rings:n
    in
    print_string (Gformat.to_string stg);
    0
  in
  Cmd.v
    (Cmd.info "gen" ~exits ~doc:"Emit a generated STG in .g format")
    Term.(const run $ family $ n_arg $ k_arg)

let verilog_cmd =
  let run stg_name cache_opt =
    guard_budget @@ fun () ->
    let cache = resolve_cache cache_opt in
    let stg = load_stg stg_name in
    let r = Mpart.synthesize ~config:{ Mpart.default_config with cache } stg in
    (match Mpart.verify r with
    | None -> ()
    | Some e ->
      Printf.eprintf "verification failed: %s\n" e;
      exit exit_verification);
    let inputs =
      List.map (Stg.signal_name stg) (Stg.inputs stg)
    in
    let nl =
      Netlist.of_functions ~name:(Stg.name stg) ~inputs r.Mpart.functions
    in
    print_string (Netlist.to_verilog nl);
    Printf.eprintf "// %d gates, ~%d transistors, max fanin %d\n"
      (Netlist.n_gates nl) (Netlist.n_transistors nl) (Netlist.max_fanin nl);
    report_cache cache;
    0
  in
  Cmd.v
    (Cmd.info "verilog" ~exits
       ~doc:"Synthesize and emit a structural Verilog netlist")
    Term.(const run $ stg_arg $ cache_arg)

let verify_cmd =
  let stgs_arg =
    let doc =
      "STG files or built-in benchmark names to verify.  With $(b,--fuzz) \
       the list may be empty."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"STG" ~doc)
  in
  let fuzz_arg =
    let doc =
      "Differential fuzzing: generate $(docv) random STGs and cross-check \
       every solver backend (walksat, dpll, bdd, direct) on each."
    in
    Arg.(value & opt (some int) None & info [ "fuzz" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Random seed for $(b,--fuzz)." in
    Arg.(value & opt int 20260806 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let max_states_arg =
    let doc = "Product-exploration state cap." in
    Arg.(value & opt int 1_000_000 & info [ "max-states" ] ~docv:"N" ~doc)
  in
  let force_dynamic_arg =
    let doc =
      "Run the dynamic product exploration even when the static H1-H5 \
       rules certify the netlist (the default elides it on a \
       certificate, which the simulation counter proves)."
    in
    Arg.(value & flag & info [ "force-dynamic" ] ~doc)
  in
  let run stg_names fuzz seed max_states force_dynamic backtrack_limit
      time_limit backend jobs_opt cache_opt =
    guard_budget @@ fun () ->
    let jobs = resolve_jobs jobs_opt in
    let cache = resolve_cache cache_opt in
    let failures = ref 0 in
    let verify_one name =
      let stg = load_stg name in
      let config =
        {
          Mpart.default_config with
          backtrack_limit;
          time_limit;
          backend;
          cache;
        }
      in
      match Mpart.synthesize ~config stg with
      | exception Mpart.Synthesis_failed msg ->
        incr failures;
        Format.printf "%-16s FAIL (synthesis: %s)@." (Stg.name stg) msg
      | r ->
        let report =
          Oracle.certify ~max_states
            ~skip_when_certified:(not force_dynamic)
            ?cache
            (Oracle.impl_of_result r)
        in
        if Oracle.passed report then
          Format.printf "%-16s PASS (%s, %d/%d spec edges, %d gates)@."
            (Stg.name stg)
            (match report.Oracle.conform with
            | Some c ->
              Printf.sprintf "%d product states"
                c.Conform.stats.Conform.product_states
            | None -> "static H1-H5 certificate, dynamic skipped")
            report.Oracle.refinement.Conform.stats.Conform.spec_edges_covered
            report.Oracle.refinement.Conform.stats.Conform.spec_edges_total
            report.Oracle.gates
        else begin
          incr failures;
          Format.printf "%-16s FAIL@.%a@." (Stg.name stg) Oracle.pp_report report
        end
    in
    List.iter verify_one stg_names;
    (match fuzz with
    | None ->
      if stg_names = [] then begin
        Printf.eprintf "mpsyn verify: nothing to do (no STG, no --fuzz)\n";
        exit exit_usage
      end
    | Some n ->
      (* Cases are drawn sequentially from the seeded generator (so the
         case list is reproducible for any --jobs), then the
         differential runs fan out over the pool and report in order.
         Unbounded solving would let the whole-graph direct baseline
         run forever on the large instances fuzzing routinely
         produces, so each backend run gets 10 wall-clock seconds
         unless --time-limit says otherwise. *)
      let rand = Random.State.make [| seed |] in
      let stgs = Array.init n (fun _ -> Bench_gen.random ~rand) in
      let time_limit = Some (Option.value time_limit ~default:10.0) in
      let results =
        Pool.map ~jobs
          (fun stg ->
            Oracle.differential_one ?backtrack_limit ?time_limit ~max_states
              ?cache stg)
          stgs
      in
      Array.iteri
        (fun i d ->
          let i = i + 1 in
          if d.Oracle.ok then
            Format.printf "fuzz %3d/%d %-14s ok@." i n d.Oracle.stg_name
          else begin
            incr failures;
            Format.printf "fuzz %3d/%d (seed %d) %a@." i n seed
              Oracle.pp_differential d;
            Format.printf "  reproduce with: mpsyn verify --fuzz %d --seed %d@."
              n seed;
            print_string (Gformat.to_string stgs.(i - 1))
          end)
        results);
    report_cache cache;
    if !failures = 0 then 0 else exit_verification
  in
  Cmd.v
    (Cmd.info "verify" ~exits
       ~doc:
         "Conformance oracle: simulate the synthesized gate-level netlist \
          against the source STG under adversarial delays")
    Term.(
      const run $ stgs_arg $ fuzz_arg $ seed_arg $ max_states_arg
      $ force_dynamic_arg $ backtrack_arg $ time_arg $ backend_arg $ jobs_arg
      $ cache_arg)

let dot_cmd =
  let run stg_name =
    guard_budget @@ fun () ->
    let stg = load_stg stg_name in
    print_string (Sg.to_dot (Sg.of_stg stg));
    0
  in
  Cmd.v
    (Cmd.info "dot" ~exits ~doc:"Emit the state graph in Graphviz dot syntax")
    Term.(const run $ stg_arg)

let () =
  (* library warnings (a dropped corrupt cache entry, a failed cache
     write) go to stderr, whichever domain raises them *)
  let m = Mutex.create () in
  Logs.set_reporter_mutex
    ~lock:(fun () -> Mutex.lock m)
    ~unlock:(fun () -> Mutex.unlock m);
  Logs.set_reporter (Logs_fmt.reporter ~app:Format.err_formatter ());
  (* MPSYN_LOG raises the level so the library's debug lines (Sg's
     sweep, Mpart's stages) can be seen *)
  (match Sys.getenv_opt "MPSYN_LOG" with
  | None | Some "" -> ()
  | Some ("debug" | "info" | "warning" as s) ->
    Logs.set_level (Result.get_ok (Logs.level_of_string s))
  | Some s ->
    Printf.eprintf "mpsyn: MPSYN_LOG must be debug, info or warning (got %s)\n" s;
    exit exit_usage);
  let doc = "modular partitioning synthesis of asynchronous circuits" in
  let cmd =
    Cmd.group
      (Cmd.info "mpsyn" ~version:"1.0.0" ~doc)
      [
        lint_cmd;
        info_cmd;
        synth_cmd;
        bench_cmd;
        list_cmd;
        gen_cmd;
        dot_cmd;
        verilog_cmd;
        verify_cmd;
      ]
  in
  exit (Cmd.eval' ~term_err:exit_usage cmd)
