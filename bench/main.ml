(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus Bechamel microbenchmarks of the library's
   core operations and the multicore trajectory.

     dune exec bench/main.exe                  -- everything
     dune exec bench/main.exe -- table1          Table 1 (E1) + area summary (E4)
     dune exec bench/main.exe -- clauses         mmu0-style formula sizes (E2)
     dune exec bench/main.exe -- scaling-methods runtime scaling figure (E3)
     dune exec bench/main.exe -- scaling         multicore scaling (E8)
     dune exec bench/main.exe -- modules         partition statistics (E5)
     dune exec bench/main.exe -- hazard          static H1-H5 vs dynamic (E9)
     dune exec bench/main.exe -- cache           cold vs warm cache (E10)
     dune exec bench/main.exe -- prefix          prefix vs explicit graph (E11)
     dune exec bench/main.exe -- solver          solver-core micro (E12)
     dune exec bench/main.exe -- partition       plan audit + dedup (E13)
     dune exec bench/main.exe -- symbolic        BDD vs explicit reachability (E14)
     dune exec bench/main.exe -- micro           Bechamel component benches
     dune exec bench/main.exe -- json [NAME..]   write BENCH_results.json
     dune exec bench/main.exe -- check F B       compare fresh F vs baseline B

   The direct and sequential baselines run under a bounded SAT budget,
   exactly as the paper ran Vanbekbergen's program (its Table 1 prints
   "SAT Backtrack Limit" rows); rows beyond the budget print as aborts,
   which *is* the headline result. *)

let direct_time_budget = 20.0
let direct_backtrack_budget = 2_000_000

(* Wall clock, not [Sys.time]: CPU time aggregates over every domain of
   the pool, which is exactly the wrong metric for multicore speedup. *)
let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Shared measurement helpers                                          *)
(* ------------------------------------------------------------------ *)

type method_result = {
  m_signals : int;
  m_states : int;
  m_area : int;
  m_time : float;
}

let run_modular ?jobs stg =
  let config =
    match jobs with
    | None -> Mpart.default_config
    | Some jobs -> { Mpart.default_config with jobs }
  in
  let r, elapsed = wall (fun () -> Mpart.synthesize_best ~config stg) in
  (match Mpart.verify r with
  | None -> ()
  | Some e -> failwith ("modular verification failed: " ^ e));
  ( {
      m_signals = Mpart.final_signals r;
      m_states = Mpart.final_states r;
      m_area = Mpart.area_literals r;
      m_time = elapsed;
    },
    r )

let run_direct sg =
  let t0 = Sys.time () in
  let r =
    Csc_direct.solve ~backtrack_limit:direct_backtrack_budget
      ~time_limit:direct_time_budget sg
  in
  match r.Csc_direct.outcome with
  | Csc_direct.Solved solved -> (
    let final =
      let m = Region_minimize.minimize solved in
      if Csc.csc_satisfied (Sg_expand.expand m) then m else solved
    in
    let ex = Sg_expand.expand final in
    if not (Csc.csc_satisfied ex) then Error (Sys.time () -. t0)
    else
      match Derive.synthesize ex with
      | fs ->
        Ok
          {
            m_signals = Sg.n_signals ex;
            m_states = Sg.n_states ex;
            m_area = Derive.total_literals fs;
            m_time = Sys.time () -. t0;
          }
      | exception Derive.Not_csc _ -> Error (Sys.time () -. t0))
  | Csc_direct.Gave_up _ -> Error (Sys.time () -. t0)

let run_sequential sg =
  let t0 = Sys.time () in
  match
    Sequential_insertion.synthesize ~backtrack_limit:direct_backtrack_budget
      ~time_limit:direct_time_budget sg
  with
  | Either.Left (ex, fs, _) ->
    Ok
      {
        m_signals = Sg.n_signals ex;
        m_states = Sg.n_states ex;
        m_area = Derive.total_literals fs;
        m_time = Sys.time () -. t0;
      }
  | Either.Right _ -> Error (Sys.time () -. t0)
  | exception Derive.Not_csc _ -> Error (Sys.time () -. t0)

(* ------------------------------------------------------------------ *)
(* E1 + E4: Table 1                                                    *)
(* ------------------------------------------------------------------ *)

let table1 () =
  print_endline "== E1: Table 1 — the three methods on the benchmark suite ==";
  Printf.printf "%-16s %11s | %26s | %26s | %26s\n" "STG" "initial"
    "modular (ours)" "direct (Vanbekbergen)" "sequential (Lavagno)";
  Printf.printf "%-16s %6s %4s | %4s %6s %5s %8s | %4s %6s %5s %8s | %4s %6s %5s %8s\n"
    "" "states" "sig" "sig" "states" "area" "time" "sig" "states" "area"
    "time" "sig" "states" "area" "time";
  let ratios_direct = ref [] and ratios_seq = ref [] in
  List.iter
    (fun (e : Bench_suite.entry) ->
      let stg = e.Bench_suite.build () in
      let sg = Sg.of_stg stg in
      Printf.printf "%-16s %6d %4d |" e.Bench_suite.name (Sg.n_states sg)
        (Sg.n_signals sg);
      let modular, _ = run_modular stg in
      Printf.printf " %4d %6d %5d %7.2fs |" modular.m_signals modular.m_states
        modular.m_area modular.m_time;
      (match run_direct sg with
      | Ok d ->
        Printf.printf " %4d %6d %5d %7.2fs |" d.m_signals d.m_states d.m_area
          d.m_time;
        ratios_direct :=
          (float_of_int modular.m_area /. float_of_int d.m_area)
          :: !ratios_direct
      | Error t -> Printf.printf " %26s |" (Printf.sprintf "abort %6.1fs" t));
      (match run_sequential sg with
      | Ok s ->
        Printf.printf " %4d %6d %5d %7.2fs" s.m_signals s.m_states s.m_area
          s.m_time;
        ratios_seq :=
          (float_of_int modular.m_area /. float_of_int s.m_area) :: !ratios_seq
      | Error t -> Printf.printf " %25s" (Printf.sprintf "abort %6.1fs" t));
      print_newline ();
      flush stdout)
    Bench_suite.all;
  let mean = function
    | [] -> nan
    | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)
  in
  print_newline ();
  print_endline "== E4: area summary (modular / baseline literal ratio) ==";
  Printf.printf
    "   vs direct:     mean ratio %.2f over %d commonly-solved benchmarks\n"
    (mean !ratios_direct)
    (List.length !ratios_direct);
  Printf.printf
    "   vs sequential: mean ratio %.2f over %d commonly-solved benchmarks\n"
    (mean !ratios_seq) (List.length !ratios_seq);
  print_endline
    "   (paper: modular area 12% below direct, 9% below Lavagno on average)"

(* ------------------------------------------------------------------ *)
(* E2: SAT formula sizes                                               *)
(* ------------------------------------------------------------------ *)

let clauses () =
  print_endline
    "== E2: SAT formula sizes — modular decomposition vs direct encoding ==";
  print_endline
    "   (paper: mmu0 direct = 35,386 clauses / 1,044 vars; modular = 954+954+85 clauses)";
  Printf.printf "%-16s | %22s | %s\n" "STG" "direct formula"
    "modular formulas (one per module with conflicts)";
  (* rows are independent: fan them across the pool, print in order *)
  List.iter print_string
    (Pool.map_list
       (fun (e : Bench_suite.entry) ->
         let stg = e.Bench_suite.build () in
         let sg = Sg.of_stg stg in
         let enc = Csc_encode.encode sg ~n_new:(max 1 (Csc.lower_bound sg)) in
         let _, r = run_modular stg in
         let module_sizes =
           List.concat_map
             (fun (m : Mpart.module_report) ->
               List.map
                 (fun (f : Mpart.formula_size) ->
                   Printf.sprintf "%dc/%dv" f.Mpart.clauses f.Mpart.vars)
                 m.Mpart.formulas)
             r.Mpart.modules
         in
         Printf.sprintf "%-16s | %10d cl %7d v | %s\n" e.Bench_suite.name
           (Cnf.n_clauses enc.Csc_encode.cnf)
           (Cnf.n_vars enc.Csc_encode.cnf)
           (if module_sizes = [] then "(no conflicts)"
            else String.concat " " module_sizes))
       Bench_suite.all)

(* ------------------------------------------------------------------ *)
(* E3: scaling figure (method comparison)                              *)
(* ------------------------------------------------------------------ *)

let scaling_methods () =
  print_endline
    "== E3: runtime scaling on the mixed pipeline family (figure-style) ==";
  Printf.printf "%10s %8s %10s %12s %12s %12s\n" "instance" "states"
    "conflicts" "modular(s)" "direct(s)" "sequential(s)";
  List.iter
    (fun (stages, branches) ->
      let stg = Bench_gen.mixed ~stages ~branches in
      let sg = Sg.of_stg stg in
      let modular, _ = run_modular stg in
      let cell = function
        | Ok r -> Printf.sprintf "%12.3f" r.m_time
        | Error _ -> Printf.sprintf "%12s" "> budget"
      in
      Printf.printf "%8dx%d %8d %10d %12.3f %s %s\n%!" stages branches
        (Sg.n_states sg) (Csc.n_conflicts sg) modular.m_time
        (cell (run_direct sg))
        (cell (run_sequential sg)))
    [ (1, 1); (2, 1); (4, 1); (1, 2); (2, 2); (4, 2); (2, 3); (3, 3) ]

(* ------------------------------------------------------------------ *)
(* E8: multicore scaling and the machine-readable bench trajectory     *)
(* ------------------------------------------------------------------ *)

let netlist_verilog stg (r : Mpart.result) =
  let inputs = List.map (Stg.signal_name stg) (Stg.inputs stg) in
  Netlist.to_verilog
    (Netlist.of_functions ~name:(Stg.name stg) ~inputs r.Mpart.functions)

(* Throwaway cache directories for the cold/warm measurements; unique
   per measurement so rows never warm each other by accident. *)
let cache_dir_counter = ref 0

let fresh_cache_dir () =
  incr cache_dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mpsyn-bench-cache.%d.%d" (Unix.getpid ())
       !cache_dir_counter)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

type trajectory_row = {
  t_name : string;
  t_states : int;
  t_area : int;
  t_seq : float; (* wall seconds, --jobs 1 *)
  t_par : float; (* wall seconds, parallel *)
  t_identical : bool; (* parallel netlist = sequential netlist *)
  t_hazard : float; (* wall seconds, static H1-H5 analysis *)
  t_hazard_verdict : string; (* certified | refuted | abstained *)
  t_dynamic : float; (* wall seconds, Conform.check product exploration *)
  t_bdd_nodes : int; (* total nodes across the per-signal managers *)
  t_cache_cold : float; (* wall seconds, empty cache (populating) *)
  t_cache_warm : float; (* wall seconds, same cache, second run *)
  t_cache_hits : int; (* cache hits during the warm run *)
  t_cache_identical : bool; (* cold = warm = uncached netlist bytes *)
  t_prefix_events : int; (* non-cutoff events of the complete prefix *)
  t_prefix_time : float; (* wall seconds, Prefix_rules.analyze *)
  t_prefix_agree : bool; (* U3/U4 verdicts = explicit ground truth *)
  t_solver_bdd_ops : int; (* computed-table probes of the BDD backend run *)
  t_solver_props : int; (* CDCL propagations on the direct CSC encoding *)
  t_solver_conflicts : int; (* CDCL conflicts on the direct CSC encoding *)
  t_solver_time : float; (* wall seconds, CDCL + BDD backend on the encoding *)
  t_partition_dup : int; (* duplicate-cone twins the plan found (M3) *)
  t_partition_saved : int; (* solver calls the dedup replay saved *)
  t_partition_time : float; (* wall seconds, Mpart.partition_summary *)
  t_symbolic_time : float; (* wall seconds, Sg.of_stg on the BDD engine *)
  t_symbolic_nodes : int; (* manager nodes live after the fixpoint *)
  t_symbolic_agree : bool; (* symbolic Sg digest = explicit Sg digest *)
  t_peak_live : int; (* Gc top_heap_words after this row's measurements *)
}

(* Twins: cones the dedup replay can serve from an earlier solve — one
   per duplicate-group member beyond the first. *)
let plan_dup (plan : Partition_check.summary) =
  List.fold_left
    (fun acc (g : Partition_check.dup_group) ->
      acc + List.length g.Partition_check.dg_outputs - 1)
    0 plan.Partition_check.p_duplicates

(* Solver invocations of one sequential synthesis run, measured through
   the process-wide counter (jobs = 1 keeps other domains quiet). *)
let solver_calls_of config stg =
  let before = Solver_calls.total () in
  let r = Mpart.synthesize ~config:{ config with Mpart.jobs = 1 } stg in
  (r, Solver_calls.total () - before)

(* The static H1-H5 pass and the dynamic product exploration it can
   replace, each wall-clocked on the synthesized netlist — the
   per-benchmark evidence for E9 and the regression columns the check
   gate watches. *)
let measure_hazard (r : Mpart.result) =
  let impl = Oracle.impl_of_result r in
  let hz, t_hazard =
    wall (fun () ->
        Hazard_check.analyze ~expanded:impl.Oracle.expanded
          ~functions:impl.Oracle.functions impl.Oracle.netlist)
  in
  let _, t_dynamic =
    wall (fun () ->
        Conform.check ~spec:impl.Oracle.expanded ~initial:impl.Oracle.initial
          impl.Oracle.netlist)
  in
  (hz, t_hazard, t_dynamic)

(* One benchmark, measured at --jobs 1 and at [par] domains; the two
   synthesized netlists must match gate for gate.  A third and fourth
   run measure the cache: cold (populating a fresh store) then warm,
   both at [par] domains, and both netlists must again match the
   uncached sequential bytes. *)
let measure ~par name stg =
  let r1, t1 =
    wall (fun () ->
        Mpart.synthesize_best ~config:{ Mpart.default_config with jobs = 1 } stg)
  in
  let rp, tp =
    wall (fun () ->
        Mpart.synthesize_best
          ~config:{ Mpart.default_config with jobs = par }
          stg)
  in
  let hz, t_hazard, t_dynamic = measure_hazard rp in
  let dir = fresh_cache_dir () in
  let cached_config =
    { Mpart.default_config with jobs = par; cache = Some (Cache_store.open_dir dir) }
  in
  let rc, t_cache_cold =
    wall (fun () -> Mpart.synthesize_best ~config:cached_config stg)
  in
  Cache_calls.reset ();
  let rw, t_cache_warm =
    wall (fun () -> Mpart.synthesize_best ~config:cached_config stg)
  in
  let t_cache_hits = Cache_calls.hits () in
  remove_tree dir;
  let reference = netlist_verilog stg r1 in
  (* the partial-order columns: exact verdicts from the complete prefix
     must agree with the explicit construction on every trajectory run *)
  let psum, t_prefix_time = wall (fun () -> Prefix_rules.analyze stg) in
  let t_prefix_agree =
    let g = Reach.explore (Stg.net stg) in
    let sg = Sg.of_stg stg in
    psum.Prefix_rules.s_markings = Some (Reach.n_states g)
    && psum.Prefix_rules.s_sg_states = Some (Sg.n_states sg)
    && psum.Prefix_rules.s_usc = Some (Csc.usc_satisfied sg)
    && psum.Prefix_rules.s_csc = Some (Csc.csc_satisfied sg)
  in
  (* the solver columns: the CDCL and BDD backends each work the direct
     CSC encoding under deterministic budgets (backjumps and nodes, not
     seconds), so the propagation/conflict/operation counters are exactly
     reproducible and the check gate can treat their growth as an
     algorithmic regression rather than timing noise *)
  let (solver_props, solver_conflicts, solver_bdd_ops), t_solver_time =
    wall (fun () ->
        let sg = Sg.of_stg stg in
        let enc = Csc_encode.encode sg ~n_new:(max 1 (Csc.lower_bound sg)) in
        let _, st = Dpll.solve ~backtrack_limit:5_000 enc.Csc_encode.cnf in
        let _, bst = Bdd_solver.solve_with_stats enc.Csc_encode.cnf in
        (st.Dpll.propagations, st.Dpll.conflicts, bst.Bdd.cache_lookups))
  in
  (* the partition columns: plan cost, how many twins the audit found,
     and the solver calls the dedup replay actually saved — measured by
     differencing the counter over a dedup-off and a dedup-on run *)
  let plan, t_partition_time =
    wall (fun () -> Mpart.partition_summary Mpart.default_config stg)
  in
  let _, calls_fresh =
    solver_calls_of { Mpart.default_config with dedup_cones = false } stg
  in
  let _, calls_dedup = solver_calls_of Mpart.default_config stg in
  (* the symbolic-engine columns: the BDD fixpoint must rebuild the
     byte-identical state graph (digest gated absolutely by check), and
     its wall time and node count travel with the trajectory so growth
     gates as a regression; peak heap words close the row so a memory
     blowup anywhere above also gates *)
  let explicit_digest = Sg.digest (Sg.of_stg stg) in
  let symbolic_digest, t_symbolic_time =
    wall (fun () -> Sg.digest (Sg.of_stg ~backend:`Symbolic stg))
  in
  let _, sym_info = Symbolic.explore_edges_info (Stg.net stg) in
  {
    t_name = name;
    t_states = Mpart.final_states rp;
    t_area = Mpart.area_literals rp;
    t_seq = t1;
    t_par = tp;
    t_identical = netlist_verilog stg rp = reference;
    t_hazard;
    t_hazard_verdict = Hazard_check.verdict_name hz;
    t_dynamic;
    t_bdd_nodes = hz.Hazard_check.bdd_nodes;
    t_cache_cold;
    t_cache_warm;
    t_cache_hits;
    t_cache_identical =
      netlist_verilog stg rc = reference && netlist_verilog stg rw = reference;
    t_prefix_events =
      psum.Prefix_rules.s_events - psum.Prefix_rules.s_cutoffs;
    t_prefix_time;
    t_prefix_agree;
    t_solver_bdd_ops = solver_bdd_ops;
    t_solver_props = solver_props;
    t_solver_conflicts = solver_conflicts;
    t_solver_time;
    t_partition_dup = plan_dup plan;
    t_partition_saved = calls_fresh - calls_dedup;
    t_partition_time;
    t_symbolic_time;
    t_symbolic_nodes = sym_info.Symbolic.i_bdd_nodes;
    t_symbolic_agree = symbolic_digest = explicit_digest;
    t_peak_live = (Gc.quick_stat ()).Gc.top_heap_words;
  }

let speedup row = if row.t_par > 0.0 then row.t_seq /. row.t_par else 1.0

let cache_speedup row =
  if row.t_cache_warm > 0.0 then row.t_cache_cold /. row.t_cache_warm else 1.0

let pp_row row =
  Printf.printf "%-16s %8d %6d %10.3f %10.3f %9.2fx %s %s %.3fs cache %.2fx %s\n%!"
    row.t_name row.t_states row.t_area row.t_seq row.t_par (speedup row)
    (if row.t_identical then "identical" else "NETLISTS DIFFER")
    row.t_hazard_verdict row.t_hazard (cache_speedup row)
    (if row.t_cache_identical then "identical" else "CACHE DIVERGES")

let scaling () =
  let par = 4 in
  Printf.printf
    "== E8: multicore scaling — wall clock at --jobs 1 vs --jobs %d ==\n" par;
  Printf.printf "   (%d recommended domains on this machine)\n"
    (Domain.recommended_domain_count ());
  Printf.printf "%-16s %8s %6s %10s %10s %10s\n" "instance" "states" "area"
    "jobs=1(s)" (Printf.sprintf "jobs=%d(s)" par) "speedup";
  List.iter
    (fun (name, stg) -> pp_row (measure ~par name stg))
    ([
       ("lock_ring-12", Bench_gen.lock_ring ~signals:12);
       ("lock_ring-20", Bench_gen.lock_ring ~signals:20);
     ]
    @ List.map
        (fun (stages, branches) ->
          ( Printf.sprintf "mixed-%dx%d" stages branches,
            Bench_gen.mixed ~stages ~branches ))
        [ (1, 1); (2, 2); (4, 2); (2, 3); (3, 3) ])

(* The trajectory file: per-benchmark states, area, wall times and
   speedup, one benchmark per line so the [check] gate (and any
   follow-up tooling) can parse it without a JSON library. *)
let write_trajectory path ~par rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"schema\": \"mpsyn-bench/1\",\n";
  Printf.fprintf oc "  \"jobs\": %d,\n" par;
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i row ->
      Printf.fprintf oc
        "    {\"name\":%S,\"states\":%d,\"area\":%d,\"time_jobs1\":%.6f,\"time_parallel\":%.6f,\"speedup\":%.3f,\"identical\":%b,\"hazard\":%S,\"hazard_time\":%.6f,\"dynamic_time\":%.6f,\"bdd_nodes\":%d,\"cache_cold\":%.6f,\"cache_warm\":%.6f,\"cache_speedup\":%.3f,\"cache_hits\":%d,\"cache_identical\":%b,\"prefix_events\":%d,\"prefix_time\":%.6f,\"prefix_agree\":%b,\"solver_bdd_ops\":%d,\"solver_props\":%d,\"solver_conflicts\":%d,\"solver_time\":%.6f,\"partition_dup\":%d,\"partition_saved\":%d,\"partition_time\":%.6f,\"symbolic_time\":%.6f,\"symbolic_nodes\":%d,\"symbolic_agree\":%b,\"peak_live_words\":%d}%s\n"
        row.t_name row.t_states row.t_area row.t_seq row.t_par (speedup row)
        row.t_identical row.t_hazard_verdict row.t_hazard row.t_dynamic
        row.t_bdd_nodes row.t_cache_cold row.t_cache_warm (cache_speedup row)
        row.t_cache_hits row.t_cache_identical row.t_prefix_events
        row.t_prefix_time row.t_prefix_agree row.t_solver_bdd_ops
        row.t_solver_props row.t_solver_conflicts row.t_solver_time
        row.t_partition_dup row.t_partition_saved row.t_partition_time
        row.t_symbolic_time row.t_symbolic_nodes row.t_symbolic_agree
        row.t_peak_live
        (if i = n - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

let default_json_subset = [ "mr1"; "vbe4a"; "atod"; "fifo"; "nak-pa" ]

let json names =
  let names = if names = [] then default_json_subset else names in
  let par = max 2 (Pool.default_jobs ()) in
  let rows =
    List.map
      (fun name ->
        let stg = (Bench_suite.find name).Bench_suite.build () in
        let row = measure ~par name stg in
        pp_row row;
        row)
      names
  in
  write_trajectory "BENCH_results.json" ~par rows;
  Printf.printf "wrote BENCH_results.json (%d benchmarks, jobs=%d)\n"
    (List.length rows) par;
  if List.for_all (fun r -> r.t_identical) rows then 0 else 1

(* ------------------------------------------------------------------ *)
(* check: regression gate over two trajectory files                    *)
(* ------------------------------------------------------------------ *)

(* Minimal extraction from the one-benchmark-per-line layout that
   [write_trajectory] emits; no JSON library in the tree. *)
let find_sub s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some (i + m)
    else go (i + 1)
  in
  go 0

let field_string line key =
  Option.map
    (fun start -> String.sub line start (String.index_from line start '"' - start))
    (find_sub line (Printf.sprintf "\"%s\":\"" key))

let field_raw line key =
  Option.map
    (fun start ->
      let stop = ref start in
      let n = String.length line in
      while !stop < n && line.[!stop] <> ',' && line.[!stop] <> '}' do
        incr stop
      done;
      String.sub line start (!stop - start))
    (find_sub line (Printf.sprintf "\"%s\":" key))

type traj_row = {
  j_name : string;
  j_time : float;
  j_identical : bool;
  j_hazard : string option; (* absent in pre-hazard baselines *)
  j_hazard_time : float option;
  j_cache_identical : bool option; (* absent in pre-cache baselines *)
  j_cache_warm : float option;
  j_prefix_agree : bool option; (* absent in pre-prefix baselines *)
  j_solver_bdd_ops : int option; (* absent in pre-solver baselines *)
  j_solver_props : int option;
  j_solver_conflicts : int option;
  j_solver_time : float option;
  j_partition_saved : int option; (* absent in pre-partition baselines *)
  j_partition_time : float option;
  j_symbolic_agree : bool option; (* absent in pre-symbolic baselines *)
  j_symbolic_time : float option;
  j_symbolic_nodes : int option;
  j_peak_live : int option;
}

let read_trajectory path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match field_string line "name" with
       | None -> ()
       | Some name ->
         let time =
           Option.bind (field_raw line "time_parallel") float_of_string_opt
         in
         let identical =
           Option.bind (field_raw line "identical") bool_of_string_opt
         in
         rows :=
           {
             j_name = name;
             j_time = Option.value time ~default:nan;
             j_identical = Option.value identical ~default:false;
             j_hazard = field_string line "hazard";
             j_hazard_time =
               Option.bind (field_raw line "hazard_time") float_of_string_opt;
             j_cache_identical =
               Option.bind (field_raw line "cache_identical") bool_of_string_opt;
             j_cache_warm =
               Option.bind (field_raw line "cache_warm") float_of_string_opt;
             j_prefix_agree =
               Option.bind (field_raw line "prefix_agree") bool_of_string_opt;
             j_solver_bdd_ops =
               Option.bind (field_raw line "solver_bdd_ops") int_of_string_opt;
             j_solver_props =
               Option.bind (field_raw line "solver_props") int_of_string_opt;
             j_solver_conflicts =
               Option.bind (field_raw line "solver_conflicts") int_of_string_opt;
             j_solver_time =
               Option.bind (field_raw line "solver_time") float_of_string_opt;
             j_partition_saved =
               Option.bind (field_raw line "partition_saved") int_of_string_opt;
             j_partition_time =
               Option.bind (field_raw line "partition_time") float_of_string_opt;
             j_symbolic_agree =
               Option.bind (field_raw line "symbolic_agree") bool_of_string_opt;
             j_symbolic_time =
               Option.bind (field_raw line "symbolic_time") float_of_string_opt;
             j_symbolic_nodes =
               Option.bind (field_raw line "symbolic_nodes") int_of_string_opt;
             j_peak_live =
               Option.bind (field_raw line "peak_live_words") int_of_string_opt;
           }
           :: !rows
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

(* A benchmark regresses when its parallel wall time exceeds twice the
   baseline's; an absolute floor keeps sub-50ms noise from tripping the
   gate on shared CI machines. *)
let regression_factor = 2.0
let regression_floor = 0.05

let check fresh_path base_path =
  let fresh = read_trajectory fresh_path in
  let base = read_trajectory base_path in
  let failures = ref 0 in
  List.iter
    (fun b ->
      match List.find_opt (fun f -> f.j_name = b.j_name) fresh with
      | None ->
        incr failures;
        Printf.printf "%-16s FAIL: missing from %s\n" b.j_name fresh_path
      | Some f ->
        if not f.j_identical then begin
          incr failures;
          Printf.printf "%-16s FAIL: parallel netlist differs\n" b.j_name
        end;
        (* a benchmark the baseline certified statically must stay
           certified — losing a certificate silently re-enables the
           dynamic exploration and is a correctness smell, not noise *)
        (match (b.j_hazard, f.j_hazard) with
        | Some "certified", Some v when v <> "certified" ->
          incr failures;
          Printf.printf "%-16s FAIL: hazard verdict %s, baseline certified\n"
            b.j_name v
        | _ -> ());
        (* cache divergence is a correctness failure regardless of the
           baseline: a warm run must replay the cold netlist byte for
           byte, so any [false] in the fresh trajectory gates *)
        (match f.j_cache_identical with
        | Some false ->
          incr failures;
          Printf.printf "%-16s FAIL: warm-cache netlist diverges\n" b.j_name
        | _ -> ());
        (* exactness is absolute: a prefix verdict disagreeing with the
           explicit ground truth gates regardless of the baseline *)
        (match f.j_prefix_agree with
        | Some false ->
          incr failures;
          Printf.printf
            "%-16s FAIL: prefix verdicts disagree with the state graph\n"
            b.j_name
        | _ -> ());
        (* warm-cache wall time gates with the same factor and noise
           floor; pre-cache baselines have no column to compare *)
        (match (b.j_cache_warm, f.j_cache_warm) with
        | Some bt, Some ft
          when ft > (regression_factor *. bt) && ft > regression_floor ->
          incr failures;
          Printf.printf
            "%-16s FAIL: warm cache %.3fs vs baseline %.3fs (> %.1fx)\n"
            b.j_name ft bt regression_factor
        | _ -> ());
        (* solver counters are deterministic (no randomization in either
           backend), so growth beyond the factor is an algorithmic
           regression, not noise; a small absolute floor ignores trivial
           formulas where a handful of extra operations is meaningless *)
        List.iter
          (fun (what, bv, fv) ->
            match (bv, fv) with
            | Some bn, Some fn
              when float_of_int fn
                   > (regression_factor *. float_of_int bn)
                   && fn > 1000 ->
              incr failures;
              Printf.printf "%-16s FAIL: %s %d vs baseline %d (> %.1fx)\n"
                b.j_name what fn bn regression_factor
            | _ -> ())
          [
            ("solver_bdd_ops", b.j_solver_bdd_ops, f.j_solver_bdd_ops);
            ("solver_props", b.j_solver_props, f.j_solver_props);
            ("solver_conflicts", b.j_solver_conflicts, f.j_solver_conflicts);
          ];
        (* solver wall time gates with the usual factor but a higher
           noise floor: a tenth-of-a-second backend run doubles under
           scheduler noise alone, and the deterministic counters above
           already catch algorithmic regressions at any scale *)
        (match (b.j_solver_time, f.j_solver_time) with
        | Some bt, Some ft when ft > (regression_factor *. bt) && ft > 0.5 ->
          incr failures;
          Printf.printf
            "%-16s FAIL: solver backends %.3fs vs baseline %.3fs (> %.1fx)\n"
            b.j_name ft bt regression_factor
        | _ -> ());
        (* dedup savings are deterministic (the plan and the replay are
           pure functions of the specification), so saving fewer solver
           calls than the baseline means the duplicate detection or the
           replay path regressed — that gates exactly *)
        (match (b.j_partition_saved, f.j_partition_saved) with
        | Some bn, Some fn when fn < bn ->
          incr failures;
          Printf.printf
            "%-16s FAIL: dedup saves %d solver call(s) vs baseline %d\n"
            b.j_name fn bn
        | _ -> ());
        (* digest identity is absolute: the symbolic engine rebuilding
           anything but the byte-identical state graph gates regardless
           of the baseline — downstream digests must never be able to
           tell which engine ran *)
        (match f.j_symbolic_agree with
        | Some false ->
          incr failures;
          Printf.printf
            "%-16s FAIL: symbolic state graph diverges from explicit\n"
            b.j_name
        | _ -> ());
        (* symbolic wall time gates with the usual factor and floor *)
        (match (b.j_symbolic_time, f.j_symbolic_time) with
        | Some bt, Some ft
          when ft > (regression_factor *. bt) && ft > regression_floor ->
          incr failures;
          Printf.printf
            "%-16s FAIL: symbolic engine %.3fs vs baseline %.3fs (> %.1fx)\n"
            b.j_name ft bt regression_factor
        | _ -> ());
        (* fixpoint node counts are deterministic (clustering and
           variable order are fixed), so growth past the factor is an
           encoding regression; the floor ignores trivial nets *)
        (match (b.j_symbolic_nodes, f.j_symbolic_nodes) with
        | Some bn, Some fn
          when float_of_int fn > (regression_factor *. float_of_int bn)
               && fn > 1000 ->
          incr failures;
          Printf.printf
            "%-16s FAIL: symbolic fixpoint %d nodes vs baseline %d (> %.1fx)\n"
            b.j_name fn bn regression_factor
        | _ -> ());
        (* peak heap words gate a memory blowup anywhere in the row's
           measurements; rows run in a fixed order, so the snapshot is
           comparable between fresh and baseline, and a 1M-word floor
           (8 MB) keeps minor-heap sizing noise out *)
        (match (b.j_peak_live, f.j_peak_live) with
        | Some bw, Some fw
          when float_of_int fw > (regression_factor *. float_of_int bw)
               && fw > 1_000_000 ->
          incr failures;
          Printf.printf
            "%-16s FAIL: peak heap %d words vs baseline %d (> %.1fx)\n"
            b.j_name fw bw regression_factor
        | _ -> ());
        (* plan-audit wall time gates with the usual factor and floor *)
        (match (b.j_partition_time, f.j_partition_time) with
        | Some bt, Some ft
          when ft > (regression_factor *. bt) && ft > regression_floor ->
          incr failures;
          Printf.printf
            "%-16s FAIL: partition audit %.3fs vs baseline %.3fs (> %.1fx)\n"
            b.j_name ft bt regression_factor
        | _ -> ());
        (* hazard-analysis wall time gates like synthesis wall time,
           with the same factor and noise floor; pre-hazard baselines
           simply have no column to compare *)
        (match (b.j_hazard_time, f.j_hazard_time) with
        | Some bt, Some ft
          when ft > (regression_factor *. bt) && ft > regression_floor ->
          incr failures;
          Printf.printf
            "%-16s FAIL: hazard check %.3fs vs baseline %.3fs (> %.1fx)\n"
            b.j_name ft bt regression_factor
        | _ -> ());
        if
          f.j_time > (regression_factor *. b.j_time)
          && f.j_time > regression_floor
        then begin
          incr failures;
          Printf.printf "%-16s FAIL: %.3fs vs baseline %.3fs (> %.1fx)\n"
            b.j_name f.j_time b.j_time regression_factor
        end
        else
          Printf.printf "%-16s ok: %.3fs (baseline %.3fs)\n" b.j_name f.j_time
            b.j_time)
    base;
  if !failures = 0 then begin
    Printf.printf "bench check: no regression vs %s\n" base_path;
    0
  end
  else begin
    Printf.printf "bench check: %d failure(s) vs %s\n" !failures base_path;
    1
  end

(* ------------------------------------------------------------------ *)
(* E9: static hazard certification vs dynamic conformance              *)
(* ------------------------------------------------------------------ *)

let hazard_table () =
  print_endline
    "== E9: static H1-H5 certification vs the dynamic product exploration ==";
  Printf.printf "%-16s %9s %8s %10s %10s %8s %9s %9s\n" "STG" "verdict"
    "regions" "static(s)" "dynamic(s)" "ratio" "bdd" "max/sig";
  (* rows are independent: fan them across the pool, print in order *)
  List.iter print_string
    (Pool.map_list
       (fun (e : Bench_suite.entry) ->
         let stg = e.Bench_suite.build () in
         let _, r = run_modular stg in
         let hz, t_static, t_dynamic = measure_hazard r in
         let regions, max_nodes =
           match hz.Hazard_check.verdict with
           | Hazard_check.Certified c ->
             ( List.length c.Hazard_check.c_regions,
               List.fold_left
                 (fun a (rs : Hazard_check.region_stat) ->
                   max a rs.Hazard_check.rs_bdd_nodes)
                 0 c.Hazard_check.c_regions )
           | _ -> (0, 0)
         in
         Printf.sprintf "%-16s %9s %8d %10.4f %10.4f %7.1fx %9d %9d\n"
           e.Bench_suite.name
           (Hazard_check.verdict_name hz)
           regions t_static t_dynamic
           (if t_static > 0.0 then t_dynamic /. t_static else nan)
           hz.Hazard_check.bdd_nodes max_nodes)
       Bench_suite.all)

(* ------------------------------------------------------------------ *)
(* E10: content-addressed synthesis cache, cold vs warm                 *)
(* ------------------------------------------------------------------ *)

(* One store shared by the whole suite (the deployment shape: a single
   MPSYN_CACHE directory accumulating entries across runs).  Every
   benchmark runs cold at --jobs 1, warm at --jobs 1, and warm again at
   --jobs 4 — the last leg exercises jobs-invariant keys: a sequential
   cold run must warm a parallel one.  All three netlists must match
   byte for byte, every warm run must actually hit, and the aggregate
   warm/cold speedup must clear 2x (the acceptance bar; in practice it
   is one or two orders of magnitude). *)
let cache_table () =
  print_endline
    "== E10: content-addressed synthesis cache — cold vs warm over the suite ==";
  let dir = fresh_cache_dir () in
  let store = Cache_store.open_dir dir in
  let config jobs =
    { Mpart.default_config with jobs; cache = Some store }
  in
  Printf.printf "%-16s %10s %10s %10s %9s %6s %s\n" "STG" "cold(s)" "warm(s)"
    "warm -j4" "speedup" "hits" "netlists";
  let total_cold = ref 0.0 and total_warm = ref 0.0 in
  let divergent = ref 0 and missed_warm = ref 0 in
  List.iter
    (fun (e : Bench_suite.entry) ->
      let stg = e.Bench_suite.build () in
      let rc, cold =
        wall (fun () -> Mpart.synthesize_best ~config:(config 1) stg)
      in
      Cache_calls.reset ();
      let rw, warm =
        wall (fun () -> Mpart.synthesize_best ~config:(config 1) stg)
      in
      let hits = Cache_calls.hits () in
      let rwp, warm_par =
        wall (fun () -> Mpart.synthesize_best ~config:(config 4) stg)
      in
      let reference = netlist_verilog stg rc in
      let identical =
        netlist_verilog stg rw = reference
        && netlist_verilog stg rwp = reference
      in
      if not identical then incr divergent;
      if hits = 0 then incr missed_warm;
      total_cold := !total_cold +. cold;
      total_warm := !total_warm +. warm;
      Printf.printf "%-16s %10.4f %10.4f %10.4f %8.1fx %6d %s\n%!"
        e.Bench_suite.name cold warm warm_par
        (if warm > 0.0 then cold /. warm else 1.0)
        hits
        (if identical then "identical" else "DIVERGE"))
    Bench_suite.all;
  let aggregate =
    if !total_warm > 0.0 then !total_cold /. !total_warm else 1.0
  in
  Printf.printf
    "\ntotal: cold %.3fs, warm %.3fs — aggregate speedup %.1fx (%d entries, %d KiB)\n"
    !total_cold !total_warm aggregate
    (Cache_store.entries store)
    (Cache_store.total_bytes store / 1024);
  remove_tree dir;
  if !divergent > 0 then begin
    Printf.printf "E10 FAIL: %d benchmark(s) diverged under the cache\n"
      !divergent;
    1
  end
  else if !missed_warm > 0 then begin
    Printf.printf "E10 FAIL: %d warm run(s) recorded no cache hit\n"
      !missed_warm;
    1
  end
  else if aggregate < 2.0 then begin
    Printf.printf "E10 FAIL: aggregate warm speedup %.1fx below the 2x bar\n"
      aggregate;
    1
  end
  else begin
    print_endline "E10 ok: byte-identical, every warm run hit, speedup >= 2x";
    0
  end

(* ------------------------------------------------------------------ *)
(* E11: partial-order prefix vs explicit state-space construction      *)
(* ------------------------------------------------------------------ *)

(* Every suite benchmark plus the two generated families that motivate
   the engine: lock rings (A6-certified, prefix linear in the ring) and
   parallel rings (CSC holds but A6 abstains — only the exact U3
   verdict certifies them, against exponentially many states).  The
   table is also the CI agreement gate: any prefix verdict that
   disagrees with the explicit ground truth fails the run. *)
let prefix_table () =
  print_endline
    "== E11: complete-prefix unfolding vs explicit state exploration ==";
  Printf.printf "%-16s %8s %8s %7s %7s %10s %10s %7s %-6s %s\n" "STG" "states"
    "edges" "events" "noncut" "prefix(s)" "explicit(s)" "ratio" "agree"
    "prescreen";
  let failures = ref 0 in
  let families =
    List.map
      (fun (e : Bench_suite.entry) ->
        (e.Bench_suite.name, e.Bench_suite.build ()))
      Bench_suite.all
    @ List.map
        (fun signals ->
          ( Printf.sprintf "lock_ring-%d" signals,
            Bench_gen.lock_ring ~signals ))
        [ 8; 12 ]
    @ List.map
        (fun rings ->
          ( Printf.sprintf "parrings-%d" rings,
            Bench_gen.parallel_rings ~rings ))
        [ 2; 3; 4; 5; 6 ]
  in
  (* rows are independent: fan them across the pool, print in order *)
  let rows =
    Pool.map_list
      (fun (name, stg) ->
        let p, t_prefix = wall (fun () -> Prefix_rules.analyze stg) in
        let (g, sg), t_explicit =
          wall (fun () -> (Reach.explore (Stg.net stg), Sg.of_stg stg))
        in
        let agree =
          p.Prefix_rules.s_complete
          && p.Prefix_rules.s_unsafe = None
          && p.Prefix_rules.s_autoconc = []
          && p.Prefix_rules.s_markings = Some (Reach.n_states g)
          && p.Prefix_rules.s_edges = Some (Reach.n_edges g)
          && p.Prefix_rules.s_sg_states = Some (Sg.n_states sg)
          && p.Prefix_rules.s_usc = Some (Csc.usc_satisfied sg)
          && p.Prefix_rules.s_csc = Some (Csc.csc_satisfied sg)
          && p.Prefix_rules.s_conflicts = Some (Csc.n_conflicts sg)
        in
        let source =
          match (Mpart.resolve Mpart.default_config stg).Mpart.certificate with
          | `Lockrel -> "lockrel"
          | `Prefix -> "prefix"
          | `None -> "none"
        in
        let noncut = p.Prefix_rules.s_events - p.Prefix_rules.s_cutoffs in
        ( agree,
          Printf.sprintf "%-16s %8d %8d %7d %7d %10.4f %10.4f %6.1fx %-6s %s\n"
            name (Reach.n_states g) (Reach.n_edges g) p.Prefix_rules.s_events
            noncut t_prefix t_explicit
            (if t_prefix > 0.0 then t_explicit /. t_prefix else nan)
            (if agree then "yes" else "NO")
            source ))
      families
  in
  List.iter
    (fun (agree, line) ->
      if not agree then incr failures;
      print_string line)
    rows;
  if !failures = 0 then begin
    print_endline "E11 ok: every prefix verdict matches the explicit graph";
    0
  end
  else begin
    Printf.printf "E11 FAIL: %d benchmark(s) disagree with ground truth\n"
      !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* E12: solver-core microbenchmarks — new engines vs the references    *)
(* ------------------------------------------------------------------ *)

(* The BDD workloads are engine-generic, instantiated once with the
   struct-of-arrays [Bdd] and once with the boxed reference [Bdd_ref]
   (the pre-rewrite implementation kept in-tree as the oracle), so the
   "before" side is measured from the same binary.  Every workload
   returns a structural checksum; the two instantiations must agree on
   it — identical canonical results, only the engine differs. *)
module type Engine = sig
  type manager
  type node

  val manager : unit -> manager
  val bdd_true : node
  val bdd_false : node
  val var : manager -> int -> node
  val nvar : manager -> int -> node
  val ite : manager -> node -> node -> node -> node
  val band : manager -> node -> node -> node
  val bor : manager -> node -> node -> node
  val bnot : manager -> node -> node
  val bxor : manager -> node -> node -> node
  val exists : manager -> int list -> node -> node
  val is_false : node -> bool
  val size : manager -> node -> int
  val n_nodes : manager -> int
  val sat_count : manager -> n_vars:int -> node -> float
end

module New_engine : Engine = struct
  include Bdd

  let manager () = manager ()
end

module Ref_engine : Engine = struct
  include Bdd_ref

  let band = and_
  let bor = or_
  let bnot = not_
  let bxor = xor
  let size _ n = size n
  let sat_count _ ~n_vars n = sat_count ~n_vars n
end

(* The hazard-checker kernel: build per-signal region BDDs from state
   codes by recursive cofactoring, then sweep pairwise combinations —
   the op mix (ite-build, or/and/not/xor, single-var quantification)
   of [Hazard_check.analyze] without its graph bookkeeping. *)
let region_kernel (module E : Engine) ~n_signals codes =
  let mgr = E.manager () in
  let rec of_codes v codes =
    match codes with
    | [] -> E.bdd_false
    | _ when v >= n_signals -> E.bdd_true
    | _ ->
      let lo, hi = List.partition (fun c -> c land (1 lsl v) = 0) codes in
      E.ite mgr (E.var mgr v) (of_codes (v + 1) hi) (of_codes (v + 1) lo)
  in
  let regions =
    Array.init n_signals (fun s ->
        of_codes 0 (List.filter (fun c -> c land (1 lsl s) <> 0) codes))
  in
  let checksum = ref 0 in
  for i = 0 to n_signals - 1 do
    for j = i + 1 to n_signals - 1 do
      let union = E.bor mgr regions.(i) regions.(j) in
      let uncovered = E.band mgr regions.(i) (E.bnot mgr regions.(j)) in
      let flips = E.bxor mgr regions.(i) regions.(j) in
      let quant = E.exists mgr [ i; j ] union in
      checksum :=
        !checksum + E.size mgr union + E.size mgr uncovered
        + E.size mgr flips + E.size mgr quant
    done
  done;
  !checksum

(* N-queens: the classic constraint build, and/or/not heavy with real
   intermediate blowup; the model count is the cross-engine check. *)
let queens_kernel (module E : Engine) n =
  let mgr = E.manager () in
  let v i j = E.var mgr ((i * n) + j) in
  let acc = ref E.bdd_true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      (* placing a queen at (i,j) forbids the rest of its row, column
         and both diagonals *)
      let attacked = ref E.bdd_true in
      for k = 0 to n - 1 do
        if k <> j then attacked := E.band mgr !attacked (E.bnot mgr (v i k));
        if k <> i then begin
          attacked := E.band mgr !attacked (E.bnot mgr (v k j));
          let d1 = j + k - i and d2 = j - k + i in
          if d1 >= 0 && d1 < n then
            attacked := E.band mgr !attacked (E.bnot mgr (v k d1));
          if d2 >= 0 && d2 < n then
            attacked := E.band mgr !attacked (E.bnot mgr (v k d2))
        end
      done;
      acc := E.band mgr !acc (E.bor mgr (E.bnot mgr (v i j)) !attacked)
    done;
    (* at least one queen per row *)
    let row = ref E.bdd_false in
    for j = 0 to n - 1 do
      row := E.bor mgr !row (v i j)
    done;
    acc := E.band mgr !acc !row
  done;
  int_of_float (E.sat_count mgr ~n_vars:(n * n) !acc)

(* The BDD-backend kernel: the clause-product build of [Bdd_solver],
   engine-generic, with the solver's node budget.  Returns (1 + product
   size), 0 for unsat, or -1 on blowup — a checksum that also encodes
   the verdict.  Node allocation is canonical, so both engines hit the
   budget at the same clause or not at all. *)
let product_kernel (module E : Engine) cnf =
  let mgr = E.manager () in
  let clause cl =
    Array.fold_left
      (fun acc l ->
        E.bor mgr acc (if l > 0 then E.var mgr l else E.nvar mgr (-l)))
      E.bdd_false cl
  in
  match
    Array.fold_left
      (fun acc cl ->
        let acc = E.band mgr acc (clause cl) in
        if E.n_nodes mgr > 300_000 then raise_notrace Exit;
        acc)
      E.bdd_true (Cnf.clauses cnf)
  with
  | product -> if E.is_false product then 0 else 1 + E.size mgr product
  | exception Exit -> -1

(* Per-run seconds: single shot when the workload is slow enough to
   trust, otherwise repeated until the total clears a noise budget. *)
let time_runs f =
  let r, t1 = wall f in
  if t1 >= 0.05 then (r, t1)
  else begin
    let reps = max 1 (int_of_float (ceil (0.05 /. Float.max 1e-6 t1))) in
    let _, total = wall (fun () -> for _ = 1 to reps do ignore (f ()) done) in
    (r, total /. float_of_int reps)
  end

let random_cnf ~seed ~vars ~clauses =
  let rng = Random.State.make [| seed |] in
  let f = Cnf.create () in
  ignore (Cnf.fresh_vars f vars);
  for _ = 1 to clauses do
    let rec pick acc =
      if List.length acc = 3 then acc
      else begin
        let v = 1 + Random.State.int rng vars in
        if List.mem v acc then pick acc else pick (v :: acc)
      end
    in
    Cnf.add_clause f
      (List.map
         (fun v -> if Random.State.bool rng then v else -v)
         (pick []))
  done;
  f

(* Pigeonhole: [p] pigeons into [p - 1] holes, the classic hard UNSAT
   family for resolution-based solvers. *)
let php_cnf p =
  let h = p - 1 in
  let f = Cnf.create () in
  ignore (Cnf.fresh_vars f (p * h));
  let v i j = ((i - 1) * h) + j in
  for i = 1 to p do
    Cnf.add_clause f (List.init h (fun j -> v i (j + 1)))
  done;
  for j = 1 to h do
    for i1 = 1 to p do
      for i2 = i1 + 1 to p do
        Cnf.add_clause f [ -v i1 j; -v i2 j ]
      done
    done
  done;
  f

let csc_encoding name =
  let stg = (Bench_suite.find name).Bench_suite.build () in
  let sg = Sg.of_stg stg in
  (Csc_encode.encode sg ~n_new:(max 1 (Csc.lower_bound sg))).Csc_encode.cnf

let solver_table () =
  print_endline
    "== E12: solver-core microbenchmarks — SoA ROBDD + CDCL vs references ==";
  print_endline
    "-- BDD ops: boxed reference engine vs struct-of-arrays engine --";
  Printf.printf "%-24s %10s %10s %10s %9s\n" "workload" "check" "ref(s)"
    "new(s)" "speedup";
  let agg_ref = ref 0.0 and agg_new = ref 0.0 in
  let mismatches = ref 0 in
  let bdd_row name work =
    let c_ref, t_ref = time_runs (fun () -> work (module Ref_engine : Engine)) in
    let c_new, t_new = time_runs (fun () -> work (module New_engine : Engine)) in
    if c_ref <> c_new then incr mismatches;
    agg_ref := !agg_ref +. t_ref;
    agg_new := !agg_new +. t_new;
    Printf.printf "%-24s %10d %10.4f %10.4f %8.2fx%s\n%!" name c_new t_ref
      t_new
      (if t_new > 0.0 then t_ref /. t_new else nan)
      (if c_ref = c_new then "" else "  CHECK MISMATCH")
  in
  List.iter
    (fun name ->
      let sg = Sg.of_stg ((Bench_suite.find name).Bench_suite.build ()) in
      let codes = List.init (Sg.n_states sg) (Sg.code sg) in
      bdd_row
        (Printf.sprintf "regions:%s" name)
        (fun e -> region_kernel e ~n_signals:(Sg.n_signals sg) codes))
    [ "mr0"; "ram-read-sbuf"; "sbuf-ram-write"; "nak-pa" ];
  List.iter
    (fun n -> bdd_row (Printf.sprintf "queens-%d" n) (fun e -> queens_kernel e n))
    [ 6; 7 ];
  List.iter
    (fun name ->
      bdd_row
        (Printf.sprintf "product:%s" name)
        (let cnf = csc_encoding name in
         fun e -> product_kernel e cnf))
    [ "fifo"; "vbe-ex2"; "nousc-ser"; "vbe-ex1" ];
  (* the new engine's counter record, from one representative run *)
  let st =
    let mgr = Bdd.manager () in
    let module I = struct
      include Bdd

      let manager () = mgr
    end in
    ignore (queens_kernel (module I : Engine) 6);
    Bdd.stats mgr
  in
  Printf.printf
    "   new-engine counters (queens-6): %d nodes, unique hit %.1f%%, computed hit %.1f%%\n"
    st.Bdd.nodes
    (100.0 *. st.Bdd.unique_hit_rate)
    (100.0 *. st.Bdd.cache_hit_rate);
  print_endline "-- CNF: chronological DPLL oracle vs CDCL --";
  Printf.printf "%-24s %9s %10s %10s %9s %10s %10s\n" "instance" "verdict"
    "dpll(s)" "cdcl(s)" "speedup" "props" "conflicts";
  let cnf_mismatches = ref 0 in
  let cnf_row name cnf =
    (* the oracle gets a time budget: on instances where chronological
       backtracking is hopeless, "> budget" is the honest row, and a
       budget abort is not a verdict disagreement *)
    let (r_basic, _), t_basic =
      time_runs (fun () -> Dpll.solve_basic ~time_limit:10.0 cnf)
    in
    let (r_cdcl, st), t_cdcl = time_runs (fun () -> Dpll.solve cnf) in
    let verdict r =
      match r with
      | Dpll.Sat _ -> "sat"
      | Dpll.Unsat -> "unsat"
      | Dpll.Aborted _ -> "abort"
    in
    let mismatch =
      match (r_basic, r_cdcl) with
      | Dpll.Aborted _, _ | _, Dpll.Aborted _ -> false
      | a, b -> verdict a <> verdict b
    in
    if mismatch then incr cnf_mismatches;
    Printf.printf "%-24s %9s %10.4f %10.4f %8.2fx %10d %10d%s\n%!" name
      (verdict r_cdcl)
      t_basic t_cdcl
      (if t_cdcl > 0.0 then t_basic /. t_cdcl else nan)
      st.Dpll.propagations st.Dpll.conflicts
      (if mismatch then "  VERDICT MISMATCH"
       else if verdict r_basic = "abort" then "  (oracle > budget)"
       else "")
  in
  List.iter
    (fun name -> cnf_row (Printf.sprintf "csc:%s" name) (csc_encoding name))
    [ "vbe4a"; "nak-pa"; "sbuf-ram-write"; "atod" ];
  List.iter
    (fun seed ->
      cnf_row
        (Printf.sprintf "rand3-60x252:%d" seed)
        (random_cnf ~seed ~vars:60 ~clauses:252))
    [ 1; 2; 3 ];
  cnf_row "php-7" (php_cnf 7);
  let aggregate =
    if !agg_new > 0.0 then !agg_ref /. !agg_new else infinity
  in
  Printf.printf
    "\naggregate BDD rows (hazard kernels + backend products): ref %.3fs, new %.3fs — %.1fx (bar: 2x)\n"
    !agg_ref !agg_new aggregate;
  if !mismatches > 0 then begin
    Printf.printf "E12 FAIL: %d BDD workload checksum mismatch(es)\n"
      !mismatches;
    1
  end
  else if !cnf_mismatches > 0 then begin
    Printf.printf "E12 FAIL: %d CDCL/DPLL verdict mismatch(es)\n"
      !cnf_mismatches;
    1
  end
  else if aggregate < 2.0 then begin
    Printf.printf "E12 FAIL: aggregate BDD speedup %.1fx below the 2x bar\n"
      aggregate;
    1
  end
  else begin
    print_endline "E12 ok: checksums agree, verdicts agree, speedup >= 2x";
    0
  end

(* ------------------------------------------------------------------ *)
(* E5: partition statistics                                            *)
(* ------------------------------------------------------------------ *)

let modules () =
  print_endline
    "== E5: modular decomposition (Figure 1(b) topology, per benchmark) ==";
  Printf.printf "%-16s %8s %8s %10s %10s %8s\n" "STG" "states" "modules"
    "max |So|" "mean |So|" "signals+";
  (* rows are independent: fan them across the pool, print in order *)
  List.iter print_string
    (Pool.map_list
       (fun (e : Bench_suite.entry) ->
         let stg = e.Bench_suite.build () in
         let _, r = run_modular stg in
         let sizes = List.map (fun m -> m.Mpart.module_states) r.Mpart.modules in
         let maxs = List.fold_left max 0 sizes in
         let mean =
           float_of_int (List.fold_left ( + ) 0 sizes)
           /. float_of_int (max 1 (List.length sizes))
         in
         Printf.sprintf "%-16s %8d %8d %10d %10.1f %8d\n" e.Bench_suite.name
           (Mpart.initial_states r)
           (List.length r.Mpart.modules)
           maxs mean
           (Mpart.n_state_signals r))
       Bench_suite.all)

(* ------------------------------------------------------------------ *)
(* E13: partition plan audit — dedup savings and risk ordering         *)
(* ------------------------------------------------------------------ *)

(* Per benchmark: the plan audit's cost and findings, the solver calls
   the duplicate-cone replay saves (counter-differenced, not trusted
   from a flag), and the stale-analysis count with and without the M4
   ascending-risk solve order.  Gates on three hard facts: the audit
   finds no M1/M5 violation on the shipped suite, every benchmark with
   twins saves at least one solver call, and every run verifies. *)
let partition_table () =
  print_endline
    "== E13: partition plan — M-rule audit, cone dedup, M4 solve order ==";
  Printf.printf "%-16s %7s %5s %5s %8s | %6s %6s %6s | %7s %7s\n" "STG"
    "outputs" "dups" "risk" "plan(s)" "fresh" "dedup" "saved" "stale+"
    "stale-";
  let failures = ref 0 in
  List.iter
    (fun (e : Bench_suite.entry) ->
      let stg = e.Bench_suite.build () in
      let plan, t_plan =
        wall (fun () -> Mpart.partition_summary Mpart.default_config stg)
      in
      if plan.Partition_check.p_violations <> [] then begin
        incr failures;
        Printf.printf "%-16s FAIL: %d M1/M5 violation(s) in the plan\n"
          e.Bench_suite.name
          (List.length plan.Partition_check.p_violations)
      end;
      let r_fresh, calls_fresh =
        solver_calls_of { Mpart.default_config with dedup_cones = false } stg
      in
      let r_dedup, calls_dedup = solver_calls_of Mpart.default_config stg in
      let r_unordered, _ =
        solver_calls_of { Mpart.default_config with order_by_risk = false } stg
      in
      List.iter
        (fun (what, r) ->
          match Mpart.verify r with
          | None -> ()
          | Some err ->
            incr failures;
            Printf.printf "%-16s FAIL: %s run does not verify: %s\n"
              e.Bench_suite.name what err)
        [ ("fresh", r_fresh); ("dedup", r_dedup); ("unordered", r_unordered) ];
      let dups = plan_dup plan in
      let saved = calls_fresh - calls_dedup in
      if dups > 0 && saved <= 0 && calls_fresh > 0 then begin
        incr failures;
        Printf.printf "%-16s FAIL: %d twin(s) but no solver call saved\n"
          e.Bench_suite.name dups
      end;
      Printf.printf "%-16s %7d %5d %5d %7.3fs | %6d %6d %6d | %7d %7d\n%!"
        e.Bench_suite.name
        (List.length plan.Partition_check.p_cones)
        dups
        (List.length plan.Partition_check.p_risky)
        t_plan calls_fresh calls_dedup saved r_dedup.Mpart.stale_analyses
        r_unordered.Mpart.stale_analyses)
    Bench_suite.all;
  if !failures = 0 then begin
    print_endline
      "E13 ok: plans audit clean, twins dedup, every configuration verifies";
    0
  end
  else begin
    Printf.printf "E13 FAIL: %d failure(s)\n" !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* E14: symbolic reachability — BDD fixpoint vs explicit sweep         *)
(* ------------------------------------------------------------------ *)

(* Best of [reps] wall-clocked runs, each from a compacted heap: the
   engines allocate at very different rates, so without the compaction
   whichever runs second pays the other's major-heap float, and the
   minimum defeats scheduler noise on shared machines. *)
let best reps f =
  let m = ref infinity in
  for _ = 1 to reps do
    Gc.compact ();
    let _, t = wall f in
    if t < !m then m := t
  done;
  !m

(* Head-to-head on the engine being replaced (the reachability sweep,
   where the asymptotic win lives) and end-to-end through [Sg.of_stg]
   (where marking materialization is already skipped but the derivation
   stages amortize the win — reported honestly, not gated).  Rows are
   the acceptance set: parallel_rings 5..8, whose reachable sets grow
   4^k while the BDD for k independent rings stays linear in k, plus
   the largest shipped Table 1 nets.  Gates: the symbolic state graph
   is digest-identical to the explicit one on every row, the engine
   actually ran symbolically (no silent fallback), and the aggregate
   reachability speedup — total explicit seconds over total symbolic
   seconds, so microsecond rows can't vote down the rows that matter —
   clears 5x. *)
let symbolic_table () =
  print_endline
    "== E14: symbolic reachability — partitioned-transition-relation BDD \
     fixpoint vs explicit sweep ==";
  Printf.printf "%-16s %8s | %9s %9s %7s | %9s %9s %7s | %6s %5s %8s %s\n"
    "instance" "states" "reach(s)" "bdd(s)" "speedup" "sg(s)" "sg-bdd(s)"
    "speedup" "nodes" "iters" "alloc-dv" "digests";
  let cap = 2_000_000 in
  let failures = ref 0 in
  let sum_explicit = ref 0.0 and sum_symbolic = ref 0.0 in
  let alloc_mwords f =
    Gc.compact ();
    let a0 = Gc.allocated_bytes () in
    ignore (f ());
    (Gc.allocated_bytes () -. a0) /. 8e6
  in
  let row name stg =
    let net = Stg.net stg in
    (* the digest-identity gate runs first and doubles as warm-up for
       both engines: the very first cold run of either pays the OS
       first-touch page faults for its working set, which would be
       charged to whichever engine happened to run first — measured
       2-3x inflation on the largest rows *)
    let de = Sg.digest (Sg.of_stg ~max_states:cap stg) in
    let ds = Sg.digest (Sg.of_stg ~max_states:cap ~backend:`Symbolic stg) in
    let (n_states, _, _), info =
      Symbolic.explore_edges_info ~max_states:cap net
    in
    let te = best 3 (fun () -> Reach.explore ~max_states:cap net) in
    let ts = best 3 (fun () -> Symbolic.explore_edges ~max_states:cap net) in
    let tse = best 2 (fun () -> Sg.digest (Sg.of_stg ~max_states:cap stg)) in
    let tss =
      best 2 (fun () ->
          Sg.digest (Sg.of_stg ~max_states:cap ~backend:`Symbolic stg))
    in
    let ae = alloc_mwords (fun () -> Reach.explore ~max_states:cap net) in
    let asym =
      alloc_mwords (fun () -> Symbolic.explore_edges ~max_states:cap net)
    in
    if de <> ds then begin
      incr failures;
      Printf.printf "%-16s FAIL: symbolic digest diverges\n" name
    end;
    if not info.Symbolic.i_symbolic then begin
      incr failures;
      Printf.printf "%-16s FAIL: fell back to the explicit sweep (%s)\n" name
        (Option.value info.Symbolic.i_fallback ~default:"?")
    end;
    sum_explicit := !sum_explicit +. te;
    sum_symbolic := !sum_symbolic +. ts;
    Printf.printf
      "%-16s %8d | %9.4f %9.4f %6.2fx | %9.4f %9.4f %6.2fx | %6d %5d %7.1fM \
       %s\n%!"
      name n_states te ts (te /. ts) tse tss (tse /. tss)
      info.Symbolic.i_bdd_nodes info.Symbolic.i_iterations (ae -. asym)
      (if de = ds then "identical" else "DIVERGE")
  in
  List.iter
    (fun rings ->
      row
        (Printf.sprintf "parallel_rings-%d" rings)
        (Bench_gen.parallel_rings ~rings))
    [ 5; 6; 7; 8 ];
  List.iter
    (fun name -> row name ((Bench_suite.find name).Bench_suite.build ()))
    [ "mr0"; "mr1"; "mmu0"; "mmu1" ];
  let aggregate = !sum_explicit /. !sum_symbolic in
  Printf.printf
    "aggregate reachability speedup: %.2fx (%.3fs explicit / %.3fs symbolic; \
     target 5x)\n"
    aggregate !sum_explicit !sum_symbolic;
  Printf.printf "peak heap after the table: %d words\n"
    (Gc.quick_stat ()).Gc.top_heap_words;
  if aggregate < 5.0 then begin
    incr failures;
    Printf.printf "E14 FAIL: aggregate speedup %.2fx below the 5x target\n"
      aggregate
  end;
  if !failures = 0 then begin
    print_endline
      "E14 ok: digest-identical on every row, no fallback, aggregate \
       speedup over 5x";
    0
  end
  else begin
    Printf.printf "E14 FAIL: %d failure(s)\n" !failures;
    1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  print_endline "== component microbenchmarks (Bechamel) ==";
  let stg = Bench_gen.mixed ~stages:2 ~branches:2 in
  let sg = Sg.of_stg stg in
  let x = Sg.find_signal sg "a0_0" in
  let enc () = Csc_encode.encode sg ~n_new:1 in
  let formula = (enc ()).Csc_encode.cnf in
  let espresso_width, onset, offset =
    (* a CSC-satisfying graph so the sets cannot collide *)
    let ex = (Mpart.synthesize_best stg).Mpart.expanded in
    let xx = Sg.find_signal ex "a0_0" in
    let on = ref [] and off = ref [] in
    for m = 0 to Sg.n_states ex - 1 do
      if Sg.implied_value ex m xx then on := Sg.code ex m :: !on
      else off := Sg.code ex m :: !off
    done;
    ( Sg.n_signals ex,
      List.sort_uniq Int.compare !on,
      List.sort_uniq Int.compare !off )
  in
  let tests =
    Test.make_grouped ~name:"mpsyn"
      [
        Test.make ~name:"reachability"
          (Staged.stage (fun () -> ignore (Reach.explore (Stg.net stg))));
        Test.make ~name:"state-graph"
          (Staged.stage (fun () -> ignore (Sg.of_stg stg)));
        Test.make ~name:"csc-conflicts"
          (Staged.stage (fun () -> ignore (Csc.conflict_pairs sg)));
        Test.make ~name:"projection"
          (Staged.stage (fun () ->
               ignore
                 (Sg.quotient sg
                    ~keep_signal:(fun s -> s = x)
                    ~keep_extra:(fun _ -> true))));
        Test.make ~name:"sat-encode" (Staged.stage (fun () -> ignore (enc ())));
        Test.make ~name:"dpll-solve"
          (Staged.stage (fun () -> ignore (Dpll.solve formula)));
        Test.make ~name:"espresso"
          (Staged.stage (fun () ->
               ignore (Espresso.minimize ~width:espresso_width ~onset ~offset)));
        Test.make ~name:"input-set"
          (Staged.stage (fun () ->
               ignore (Input_derivation.determine sg ~output:x)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with Some (v :: _) -> v | _ -> nan
        in
        (name, ns) :: acc)
      results []
  in
  List.iter
    (fun (name, ns) ->
      if ns < 1_000.0 then Printf.printf "  %-28s %10.1f ns/run\n" name ns
      else if ns < 1_000_000.0 then
        Printf.printf "  %-28s %10.2f us/run\n" name (ns /. 1e3)
      else Printf.printf "  %-28s %10.2f ms/run\n" name (ns /. 1e6))
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline
    "== ablations: module normalization, portfolio, BDD backend ==";
  Printf.printf "%-16s | %19s | %19s | %19s | %19s | %19s\n" "STG"
    "normalize=on" "normalize=off" "portfolio" "backend=bdd" "exact covers";
  Printf.printf
    "%-16s | %6s %5s %6s | %6s %5s %6s | %6s %5s %6s | %6s %5s %6s | %6s %5s %6s\n"
    "" "area" "sig+" "time" "area" "sig+" "time" "area" "sig+" "time" "area"
    "sig+" "time" "area" "sig+" "time";
  let run config stg =
    let t0 = Sys.time () in
    match Mpart.synthesize ~config stg with
    | r when Mpart.verify r = None ->
      Printf.sprintf "%6d %5d %5.2fs" (Mpart.area_literals r)
        (Mpart.n_state_signals r) (Sys.time () -. t0)
    | _ -> Printf.sprintf "%18s" "invalid"
    | exception Mpart.Synthesis_failed _ -> Printf.sprintf "%18s" "failed"
  in
  let run_best stg =
    let t0 = Sys.time () in
    let r = Mpart.synthesize_best stg in
    Printf.sprintf "%6d %5d %5.2fs" (Mpart.area_literals r)
      (Mpart.n_state_signals r) (Sys.time () -. t0)
  in
  List.iter
    (fun name ->
      let stg = (Bench_suite.find name).Bench_suite.build () in
      Printf.printf "%-16s | %s | %s | %s | %s | %s\n%!" name
        (run { Mpart.default_config with normalize_modules = true } stg)
        (run { Mpart.default_config with normalize_modules = false } stg)
        (run_best stg)
        (run { Mpart.default_config with backend = `Bdd } stg)
        (run { Mpart.default_config with exact_covers = true } stg))
    [
      "mr1"; "mmu0"; "mmu1"; "vbe4a"; "nak-pa"; "pe-rcv-ifc-fc";
      "sbuf-ram-write"; "atod"; "fifo"; "alloc-outbound";
    ]

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let rest =
    if Array.length Sys.argv > 2 then
      Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    else []
  in
  match which with
  | "table1" -> table1 ()
  | "clauses" -> clauses ()
  | "scaling" -> scaling ()
  | "scaling-methods" -> scaling_methods ()
  | "modules" -> modules ()
  | "hazard" -> hazard_table ()
  | "cache" -> exit (cache_table ())
  | "prefix" -> exit (prefix_table ())
  | "solver" -> exit (solver_table ())
  | "partition" -> exit (partition_table ())
  | "symbolic" -> exit (symbolic_table ())
  | "micro" -> micro ()
  | "ablation" -> ablation ()
  | "json" -> exit (json rest)
  | "check" -> (
    match rest with
    | [ fresh; base ] -> exit (check fresh base)
    | _ ->
      Printf.eprintf "usage: bench check FRESH.json BASELINE.json\n";
      exit 2)
  | "all" ->
    table1 ();
    print_newline ();
    clauses ();
    print_newline ();
    scaling_methods ();
    print_newline ();
    scaling ();
    print_newline ();
    modules ();
    print_newline ();
    hazard_table ();
    print_newline ();
    ignore (cache_table () : int);
    print_newline ();
    ignore (prefix_table () : int);
    print_newline ();
    ignore (solver_table () : int);
    print_newline ();
    ignore (partition_table () : int);
    print_newline ();
    ignore (symbolic_table () : int);
    print_newline ();
    ablation ();
    print_newline ();
    micro ()
  | other ->
    Printf.eprintf
      "unknown bench %s (expected table1|clauses|scaling|scaling-methods|\
       modules|hazard|cache|prefix|solver|partition|symbolic|ablation|micro|json|\
       check|all)\n"
      other;
    exit 2
