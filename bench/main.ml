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

(* Wall clock, not process CPU time: CPU time sums over every domain of
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
  let r, elapsed = wall (fun () -> Mpart.synthesize ~config stg) in
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

(* A baseline run: [synth] returns the expanded graph and its covers,
   or [None] when the method gave up; either way the wall time is
   reported. *)
let run_baseline synth =
  match wall synth with
  | Some (ex, fs), t ->
    Ok
      {
        m_signals = Sg.n_signals ex;
        m_states = Sg.n_states ex;
        m_area = Derive.total_literals fs;
        m_time = t;
      }
  | None, t -> Error t

let run_direct sg =
  run_baseline (fun () ->
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
        if not (Csc.csc_satisfied ex) then None
        else
          match Derive.synthesize ex with
          | fs -> Some (ex, fs)
          | exception Derive.Not_csc _ -> None)
      | Csc_direct.Gave_up _ -> None)

let run_sequential sg =
  run_baseline (fun () ->
      match
        Sequential_insertion.synthesize
          ~backtrack_limit:direct_backtrack_budget
          ~time_limit:direct_time_budget sg
      with
      | Either.Left (ex, fs, _) -> Some (ex, fs)
      | Either.Right _ -> None
      | exception Derive.Not_csc _ -> None)

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

exception Gate_error of string

(* A column of a trajectory row.  The check gate requires every column
   it reads: a trajectory without one fails instead of silently skipping
   the gate. *)
let column conv key row =
  try conv (Json.member key row)
  with Json.Type_error msg ->
    raise (Gate_error (Printf.sprintf "column %s: %s" key msg))

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
  let before = Counter.get Counter.solver in
  let r = Mpart.synthesize ~config:{ config with Mpart.jobs = 1 } stg in
  (r, Counter.get Counter.solver - before)

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
   uncached sequential bytes.  The result is the benchmark's
   [mpsyn-bench/1] trajectory row. *)
let measure ~par name stg =
  let r1, t1 =
    wall (fun () ->
        Mpart.synthesize ~config:{ Mpart.default_config with jobs = 1 } stg)
  in
  let rp, tp =
    wall (fun () ->
        Mpart.synthesize
          ~config:{ Mpart.default_config with jobs = par }
          stg)
  in
  let hz, t_hazard, t_dynamic = measure_hazard rp in
  let dir = fresh_cache_dir () in
  let cached_config =
    { Mpart.default_config with jobs = par; cache = Some (Cache_store.open_dir dir) }
  in
  let rc, t_cache_cold =
    wall (fun () -> Mpart.synthesize ~config:cached_config stg)
  in
  Counter.reset Counter.cache_hit;
  let rw, t_cache_warm =
    wall (fun () -> Mpart.synthesize ~config:cached_config stg)
  in
  let t_cache_hits = Counter.get Counter.cache_hit in
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
  let time t = Json.fixed 6 t in
  let ratio a b = Json.fixed 3 (if b > 0.0 then a /. b else 1.0) in
  Json.Obj
    [
      ("name", Str name);
      ("states", Json.int (Mpart.final_states rp));
      ("area", Json.int (Mpart.area_literals rp));
      ("time_jobs1", time t1);
      ("time_parallel", time tp);
      ("speedup", ratio t1 tp);
      ("identical", Bool (netlist_verilog stg rp = reference));
      ("hazard", Str (Hazard_check.verdict_name hz));
      ("hazard_time", time t_hazard);
      ("dynamic_time", time t_dynamic);
      ("bdd_nodes", Json.int hz.Hazard_check.bdd_nodes);
      ("cache_cold", time t_cache_cold);
      ("cache_warm", time t_cache_warm);
      ("cache_speedup", ratio t_cache_cold t_cache_warm);
      ("cache_hits", Json.int t_cache_hits);
      ( "cache_identical",
        Bool
          (netlist_verilog stg rc = reference
          && netlist_verilog stg rw = reference) );
      ( "prefix_events",
        Json.int (psum.Prefix_rules.s_events - psum.Prefix_rules.s_cutoffs) );
      ("prefix_time", time t_prefix_time);
      ("prefix_agree", Bool t_prefix_agree);
      ("solver_bdd_ops", Json.int solver_bdd_ops);
      ("solver_props", Json.int solver_props);
      ("solver_conflicts", Json.int solver_conflicts);
      ("solver_time", time t_solver_time);
      ("partition_dup", Json.int (plan_dup plan));
      ("partition_saved", Json.int (calls_fresh - calls_dedup));
      ("partition_time", time t_partition_time);
      ("symbolic_time", time t_symbolic_time);
      ("symbolic_nodes", Json.int sym_info.Symbolic.i_bdd_nodes);
      ("symbolic_agree", Bool (symbolic_digest = explicit_digest));
      (* Gc top_heap_words after this row's measurements *)
      ("peak_live_words", Json.int (Gc.quick_stat ()).Gc.top_heap_words);
    ]

let pp_row row =
  let col conv key = column conv key row in
  Printf.printf "%-16s %8d %6d %10.3f %10.3f %9.2fx %s %s %.3fs cache %.2fx %s\n%!"
    (col Json.to_str "name") (col Json.to_int "states") (col Json.to_int "area")
    (col Json.to_float "time_jobs1")
    (col Json.to_float "time_parallel")
    (col Json.to_float "speedup")
    (if col Json.to_bool "identical" then "identical" else "NETLISTS DIFFER")
    (col Json.to_str "hazard")
    (col Json.to_float "hazard_time")
    (col Json.to_float "cache_speedup")
    (if col Json.to_bool "cache_identical" then "identical" else "CACHE DIVERGES")

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
   speedup, one benchmark object per line. *)
let write_trajectory path ~par rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"mpsyn-bench/1\",\n  \"jobs\": %d,\n" par;
  Printf.fprintf oc "  \"benchmarks\": [\n";
  let n = List.length rows in
  List.iteri
    (fun i row ->
      Printf.fprintf oc "    %s%s\n" (Json.to_string row)
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
  if List.for_all (column Json.to_bool "identical") rows then 0 else 1

(* ------------------------------------------------------------------ *)
(* check: regression gate over two trajectory files                    *)
(* ------------------------------------------------------------------ *)

(* (name, row) pairs, in file order *)
let read_trajectory path =
  match
    In_channel.with_open_bin path In_channel.input_all
    |> Json.of_string |> Json.member "benchmarks" |> Json.to_list
  with
  | rows -> List.map (fun row -> (column Json.to_str "name" row, row)) rows
  | exception Sys_error msg -> raise (Gate_error msg)
  | exception (Json.Parse_error msg | Json.Type_error msg) ->
    raise (Gate_error (Printf.sprintf "%s: %s" path msg))

(* A benchmark regresses when its parallel wall time exceeds twice the
   baseline's; an absolute floor keeps sub-50ms noise from tripping the
   gate on shared CI machines. *)
let regression_factor = 2.0
let regression_floor = 0.05

(* The per-row gates, in report order.  Each reads its columns from the
   baseline row [b] and the fresh row [f] and returns the failure it
   finds. *)
let gates =
  (* absolute: cache divergence, a prefix verdict disagreeing with the
     explicit ground truth, or a symbolic state graph that is not the
     explicit one fails whatever the baseline says *)
  let holds key what _ f =
    if column Json.to_bool key f then None else Some what
  in
  (* wall times gate on the factor and an absolute noise floor *)
  let slower key what floor b f =
    let bt = column Json.to_float key b and ft = column Json.to_float key f in
    if ft > regression_factor *. bt && ft > floor then
      Some
        (Printf.sprintf "%s %.3fs vs baseline %.3fs (> %.1fx)" what ft bt
           regression_factor)
    else None
  in
  (* deterministic counts (solver counters, fixpoint nodes, peak heap)
     gate on the factor; the floor ignores trivial instances *)
  let grows key (what, unit) floor b f =
    let bn = column Json.to_int key b and fn = column Json.to_int key f in
    if float_of_int fn > regression_factor *. float_of_int bn && fn > floor
    then
      Some
        (Printf.sprintf "%s %d%s vs baseline %d (> %.1fx)" what fn unit bn
           regression_factor)
    else None
  in
  [
    holds "identical" "parallel netlist differs";
    (* losing a baseline certificate silently re-enables the dynamic
       exploration: a correctness smell, not noise *)
    (fun b f ->
      match (column Json.to_str "hazard" b, column Json.to_str "hazard" f) with
      | "certified", v when v <> "certified" ->
        Some (Printf.sprintf "hazard verdict %s, baseline certified" v)
      | _ -> None);
    holds "cache_identical" "warm-cache netlist diverges";
    holds "prefix_agree" "prefix verdicts disagree with the state graph";
    slower "cache_warm" "warm cache" regression_floor;
    grows "solver_bdd_ops" ("solver_bdd_ops", "") 1000;
    grows "solver_props" ("solver_props", "") 1000;
    grows "solver_conflicts" ("solver_conflicts", "") 1000;
    (* a tenth-of-a-second backend run doubles under scheduler noise
       alone; the counters above catch algorithmic regressions *)
    slower "solver_time" "solver backends" 0.5;
    (* the plan and the replay are pure functions of the specification,
       so saving fewer solver calls than the baseline gates exactly *)
    (fun b f ->
      let bn = column Json.to_int "partition_saved" b
      and fn = column Json.to_int "partition_saved" f in
      if fn < bn then
        Some
          (Printf.sprintf "dedup saves %d solver call(s) vs baseline %d" fn bn)
      else None);
    holds "symbolic_agree" "symbolic state graph diverges from explicit";
    slower "symbolic_time" "symbolic engine" regression_floor;
    grows "symbolic_nodes" ("symbolic fixpoint", " nodes") 1000;
    (* a 1M-word (8 MB) floor keeps minor-heap sizing noise out *)
    grows "peak_live_words" ("peak heap", " words") 1_000_000;
    slower "partition_time" "partition audit" regression_floor;
    slower "hazard_time" "hazard check" regression_floor;
  ]

let check fresh_path base_path =
  match (read_trajectory fresh_path, read_trajectory base_path) with
  | exception Gate_error msg ->
    Printf.printf "bench check: %s\n" msg;
    1
  | fresh, base ->
    let failures = ref 0 in
    let fail name msg =
      incr failures;
      Printf.printf "%-16s FAIL: %s\n" name msg
    in
    let run name gate = try gate () with Gate_error msg -> fail name msg in
    List.iter
      (fun (name, b) ->
        match List.assoc_opt name fresh with
        | None -> fail name ("missing from " ^ fresh_path)
        | Some f ->
          List.iter
            (fun gate ->
              run name (fun () -> Option.iter (fail name) (gate b f)))
            gates;
          run name (fun () ->
              let bt = column Json.to_float "time_parallel" b
              and ft = column Json.to_float "time_parallel" f in
              if ft > regression_factor *. bt && ft > regression_floor then
                fail name
                  (Printf.sprintf "%.3fs vs baseline %.3fs (> %.1fx)" ft bt
                     regression_factor)
              else
                Printf.printf "%-16s ok: %.3fs (baseline %.3fs)\n" name ft bt))
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
        wall (fun () -> Mpart.synthesize ~config:(config 1) stg)
      in
      Counter.reset Counter.cache_hit;
      let rw, warm =
        wall (fun () -> Mpart.synthesize ~config:(config 1) stg)
      in
      let hits = Counter.get Counter.cache_hit in
      let rwp, warm_par =
        wall (fun () -> Mpart.synthesize ~config:(config 4) stg)
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
          if Lint.prescreen stg <> None then "lockrel"
          else if p.Prefix_rules.s_csc = Some true then "prefix"
          else "none"
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
      time_runs (fun () ->
          Dpll.solve_basic ~deadline:(Deadline.of_limit (Some 10.0)) cnf)
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
    let ex = (Mpart.synthesize stg).Mpart.expanded in
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
  print_endline "== ablations: BDD backend ==";
  Printf.printf "%-16s | %19s | %19s\n" "STG" "default" "backend=bdd";
  Printf.printf "%-16s | %6s %5s %6s | %6s %5s %6s\n" "" "area" "sig+" "time"
    "area" "sig+" "time";
  let run config stg =
    match wall (fun () -> Mpart.synthesize ~config stg) with
    | r, t when Mpart.verify r = None ->
      Printf.sprintf "%6d %5d %5.2fs" (Mpart.area_literals r)
        (Mpart.n_state_signals r) t
    | _ -> Printf.sprintf "%18s" "invalid"
    | exception Mpart.Synthesis_failed _ -> Printf.sprintf "%18s" "failed"
  in
  List.iter
    (fun name ->
      let stg = (Bench_suite.find name).Bench_suite.build () in
      Printf.printf "%-16s | %s | %s\n%!" name
        (run Mpart.default_config stg)
        (run { Mpart.default_config with backend = `Bdd } stg))
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
