(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section, plus the per-benchmark trajectory and its
   regression gate.

     dune exec bench/main.exe                  -- every experiment
     dune exec bench/main.exe -- NAME [ARG..]    one of them

   The names, what each measures and the arguments of [json] and
   [check] are the [experiments] registry at the end of this file; an
   unknown name prints the list.

   The direct and sequential baselines run under a bounded SAT budget,
   exactly as the paper ran Vanbekbergen's program (its Table 1 prints
   "SAT Backtrack Limit" rows); rows beyond the budget print as aborts,
   which *is* the headline result. *)

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

let run_modular stg =
  let r, elapsed = wall (fun () -> Mpart.synthesize stg) in
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

(* The two baselines through their drivers, direct first, each under
   the bounded SAT budget: [Ok] a method's row, or [Error] the wall time
   of an abort.  An expansion that lacks CSC counts as an abort. *)
let baselines sg =
  let backtrack_limit = Direct_method.backtrack_budget
  and time_limit = Direct_method.time_budget in
  let row synth =
    match wall (fun () -> try synth () with Derive.Not_csc _ -> None) with
    | Some (ex, fs), t ->
      Ok
        {
          m_signals = Sg.n_signals ex;
          m_states = Sg.n_states ex;
          m_area = Derive.total_literals fs;
          m_time = t;
        }
    | None, t -> Error t
  in
  let solved = function
    | Either.Left (ex, fs, _) -> Some (ex, fs)
    | Either.Right _ -> None
  in
  let direct =
    row (fun () ->
        solved (Direct_method.synthesize ~backtrack_limit ~time_limit sg))
  in
  let sequential =
    row (fun () ->
        solved (Sequential_insertion.synthesize ~backtrack_limit ~time_limit sg))
  in
  (direct, sequential)

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
      let direct, sequential = baselines sg in
      (match direct with
      | Ok d ->
        Printf.printf " %4d %6d %5d %7.2fs |" d.m_signals d.m_states d.m_area
          d.m_time;
        ratios_direct :=
          (float_of_int modular.m_area /. float_of_int d.m_area)
          :: !ratios_direct
      | Error t -> Printf.printf " %26s |" (Printf.sprintf "abort %6.1fs" t));
      (match sequential with
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
      let direct, sequential = baselines sg in
      let cell = function
        | Ok r -> Printf.sprintf "%12.3f" r.m_time
        | Error _ -> Printf.sprintf "%12s" "> budget"
      in
      Printf.printf "%8dx%d %8d %10d %12.3f %s %s\n%!" stages branches
        (Sg.n_states sg) (Csc.n_conflicts sg) modular.m_time
        (cell direct) (cell sequential))
    [ (1, 1); (2, 1); (4, 1); (1, 2); (2, 2); (4, 2); (2, 3); (3, 3) ]

(* ------------------------------------------------------------------ *)
(* The machine-readable bench trajectory                              *)
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

(* ------------------------------------------------------------------ *)
(* Layer probes, each shared by its table and the trajectory row       *)
(* ------------------------------------------------------------------ *)

(* E11's layer: the complete prefix's exact verdicts against the
   explicit construction, on every field both can state. *)
type prefix_probe = {
  summary : Prefix_rules.summary;
  prefix_s : float;
  reach : Reach.t;
  explicit_s : float;
  agree : bool;
}

let probe_prefix stg =
  let p, prefix_s = wall (fun () -> Prefix_rules.analyze stg) in
  let (g, sg), explicit_s =
    wall (fun () ->
        (Reach.explore (Stg.net stg), Sg.of_stg ~backend:`Explicit stg))
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
  { summary = p; prefix_s; reach = g; explicit_s; agree }

(* The trajectory's sweep columns: the default [Sg.of_stg] (the one
   sweep every command runs) must rebuild the [Reach.explore]
   reference's state graph byte for byte.  Returns that verdict and the
   wall time of the default build. *)
let probe_sweep stg =
  let explicit = Sg.digest (Sg.of_stg ~backend:`Explicit stg) in
  let sweep, t = wall (fun () -> Sg.digest (Sg.of_stg stg)) in
  (sweep = explicit, t)

(* E10's layer: a cold run populates [store]; a warm run must then hit
   it and print the cold netlist byte for byte. *)
type cache_probe = {
  cold_s : float;
  warm_s : float;
  hits : int;  (** cache hits of the warm run *)
  netlist : string;  (** the cold run's Verilog *)
  warm_identical : bool;
}

let probe_cache store stg =
  let config = { Mpart.default_config with cache = Some store } in
  let rc, cold_s = wall (fun () -> Mpart.synthesize ~config stg) in
  Counter.reset Counter.cache_hit;
  let rw, warm_s = wall (fun () -> Mpart.synthesize ~config stg) in
  let hits = Counter.get Counter.cache_hit in
  let netlist = netlist_verilog stg rc in
  {
    cold_s;
    warm_s;
    hits;
    netlist;
    warm_identical = netlist_verilog stg rw = netlist;
  }

(* E13's layer: the plan audit, its wall time, and the twins it finds
   (duplicate-group members beyond the first). *)
let probe_partition stg =
  let plan, plan_s =
    wall (fun () -> Mpart.partition_summary Mpart.default_config stg)
  in
  let dups =
    List.fold_left
      (fun acc (g : Partition_check.dup_group) ->
        acc + List.length g.Partition_check.dg_outputs - 1)
      0 plan.Partition_check.p_duplicates
  in
  (plan, plan_s, dups)

(* The verdict line of a gated table (E10-E13): the first failing
   check prints its FAIL line, otherwise the ok line prints.  Returns
   the exit code. *)
let verdict name ~ok checks =
  match List.find_opt fst checks with
  | Some (_, msg) ->
    Printf.printf "%s FAIL: %s\n" name msg;
    1
  | None ->
    Printf.printf "%s ok: %s\n" name ok;
    0

exception Gate_error of string

(* A column of a trajectory row.  The check gate requires every column
   it reads: a trajectory without one fails instead of silently skipping
   the gate. *)
let column conv key row =
  try conv (Json.member key row)
  with Json.Type_error msg ->
    raise (Gate_error (Printf.sprintf "column %s: %s" key msg))

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

(* One benchmark, synthesized three times: uncached, then cold
   (populating a fresh store) and warm.  The cold run's netlist must
   match the uncached one gate for gate, and the warm run's the cold
   one.  The result is the benchmark's [mpsyn-bench/1] trajectory
   row. *)
let measure name stg =
  let r, t = wall (fun () -> Mpart.synthesize stg) in
  let hz, t_hazard, t_dynamic = measure_hazard r in
  let dir = fresh_cache_dir () in
  let cache = probe_cache (Cache_store.open_dir dir) stg in
  remove_tree dir;
  (* the partial-order columns: exact verdicts from the complete prefix
     must agree with the explicit construction on every trajectory run *)
  let prefix = probe_prefix stg in
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
     and how many modules the uncached run replayed from a twin *)
  let _, plan_s, dups = probe_partition stg in
  (* the sweep columns: the default Σ must be the explicit reference's
     byte for byte (digest gated absolutely by check), and its wall time
     travels with the trajectory so growth gates as a regression; peak
     heap words close the row so a memory blowup anywhere above also
     gates *)
  let sweep_agree, t_sweep_time = probe_sweep stg in
  let time t = Json.fixed 6 t in
  let ratio a b = Json.fixed 3 (if b > 0.0 then a /. b else 1.0) in
  Json.Obj
    [
      ("name", Str name);
      ("states", Json.int (Mpart.final_states r));
      ("area", Json.int (Mpart.area_literals r));
      ("time", time t);
      ("identical", Bool (netlist_verilog stg r = cache.netlist));
      ("hazard", Str (Hazard_check.verdict_name hz));
      ("hazard_time", time t_hazard);
      ("dynamic_time", time t_dynamic);
      ("bdd_nodes", Json.int hz.Hazard_check.bdd_nodes);
      ("cache_cold", time cache.cold_s);
      ("cache_warm", time cache.warm_s);
      ("cache_speedup", ratio cache.cold_s cache.warm_s);
      ("cache_hits", Json.int cache.hits);
      ("cache_identical", Bool cache.warm_identical);
      ( "prefix_events",
        Json.int
          (prefix.summary.Prefix_rules.s_events
          - prefix.summary.Prefix_rules.s_cutoffs) );
      ("prefix_time", time prefix.prefix_s);
      ("prefix_agree", Bool prefix.agree);
      ("solver_bdd_ops", Json.int solver_bdd_ops);
      ("solver_props", Json.int solver_props);
      ("solver_conflicts", Json.int solver_conflicts);
      ("solver_time", time t_solver_time);
      ("partition_dup", Json.int dups);
      ("partition_replayed", Json.int (List.length r.Mpart.replayed));
      ("partition_time", time plan_s);
      ("sweep_time", time t_sweep_time);
      ("sweep_agree", Bool sweep_agree);
      (* Gc top_heap_words after this row's measurements; [json] runs
         each row in a fresh process, so this is the row's own peak *)
      ("peak_live_words", Json.int (Gc.quick_stat ()).Gc.top_heap_words);
    ]

let pp_row row =
  let col conv key = column conv key row in
  Printf.printf "%-16s %8d %6d %10.3f %s %s %.3fs cache %.2fx %s\n%!"
    (col Json.to_str "name") (col Json.to_int "states") (col Json.to_int "area")
    (col Json.to_float "time")
    (if col Json.to_bool "identical" then "identical" else "NETLISTS DIFFER")
    (col Json.to_str "hazard")
    (col Json.to_float "hazard_time")
    (col Json.to_float "cache_speedup")
    (if col Json.to_bool "cache_identical" then "identical" else "CACHE DIVERGES")

(* The trajectory file: per-benchmark states, area and wall times, one
   benchmark object per line. *)
let write_trajectory path rows =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"schema\": \"mpsyn-bench/1\",\n";
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

(* [row NAME]: measure one trajectory row in this process and print it
   as the last line of stdout. *)
let row = function
  | [ name ] ->
    let stg = (Bench_suite.find name).Bench_suite.build () in
    print_endline (Json.to_string (measure name stg));
    0
  | _ ->
    Printf.eprintf "usage: bench row NAME\n";
    2

(* Each row runs in a child process of its own, so its
   [peak_live_words] is that row's peak heap and not the peak of every
   row measured before it in the same process. *)
let row_in_child name =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "row"; name |] in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
    let lines = String.split_on_char '\n' (String.trim out) in
    let last = List.nth lines (List.length lines - 1) in
    try Some (Json.of_string last) with Json.Parse_error _ -> None)
  | _ -> None

let json names =
  let names = if names = [] then default_json_subset else names in
  let rows =
    List.filter_map
      (fun name ->
        match row_in_child name with
        | Some row ->
          pp_row row;
          Some row
        | None ->
          Printf.printf "%-16s FAIL: its bench row did not complete\n%!" name;
          None)
      names
  in
  write_trajectory "BENCH_results.json" rows;
  Printf.printf "wrote BENCH_results.json (%d benchmarks)\n" (List.length rows);
  if
    List.length rows = List.length names
    && List.for_all (column Json.to_bool "identical") rows
  then 0
  else 1

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

(* A benchmark regresses when its synthesis wall time exceeds twice the
   baseline's; an absolute floor keeps sub-50ms noise from tripping the
   gate on shared CI machines. *)
let regression_factor = 2.0
let regression_floor = 0.05

(* The per-row gates, in report order.  Each reads its columns from the
   baseline row [b] and the fresh row [f] and returns the failure it
   finds. *)
let gates =
  (* absolute: cache divergence, a prefix verdict disagreeing with the
     explicit ground truth, or a swept state graph that is not the
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
  (* deterministic counts (solver counters, peak heap)
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
    holds "identical" "cold-cache netlist differs from the uncached one";
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
       so replaying fewer cones than the baseline gates exactly *)
    (fun b f ->
      let bn = column Json.to_int "partition_replayed" b
      and fn = column Json.to_int "partition_replayed" f in
      if fn < bn then
        Some (Printf.sprintf "dedup replays %d cone(s) vs baseline %d" fn bn)
      else None);
    holds "sweep_agree" "the sweep's state graph diverges from explicit";
    slower "sweep_time" "reachability sweep" regression_floor;
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
              let bt = column Json.to_float "time" b
              and ft = column Json.to_float "time" f in
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
   benchmark runs cold, then warm.  Both netlists must match byte for
   byte, every warm run must actually hit, and the aggregate warm/cold
   speedup must clear 2x (the acceptance bar; in practice it is one or
   two orders of magnitude). *)
let cache_table () =
  print_endline
    "== E10: content-addressed synthesis cache — cold vs warm over the suite ==";
  let dir = fresh_cache_dir () in
  let store = Cache_store.open_dir dir in
  Printf.printf "%-16s %10s %10s %9s %6s %s\n" "STG" "cold(s)" "warm(s)"
    "speedup" "hits" "netlists";
  let total_cold = ref 0.0 and total_warm = ref 0.0 in
  let divergent = ref 0 and missed_warm = ref 0 in
  List.iter
    (fun (e : Bench_suite.entry) ->
      let stg = e.Bench_suite.build () in
      let c = probe_cache store stg in
      if not c.warm_identical then incr divergent;
      if c.hits = 0 then incr missed_warm;
      total_cold := !total_cold +. c.cold_s;
      total_warm := !total_warm +. c.warm_s;
      Printf.printf "%-16s %10.4f %10.4f %8.1fx %6d %s\n%!"
        e.Bench_suite.name c.cold_s c.warm_s
        (if c.warm_s > 0.0 then c.cold_s /. c.warm_s else 1.0)
        c.hits
        (if c.warm_identical then "identical" else "DIVERGE"))
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
  verdict "E10" ~ok:"byte-identical, every warm run hit, speedup >= 2x"
    [
      ( !divergent > 0,
        Printf.sprintf "%d benchmark(s) diverged under the cache" !divergent );
      ( !missed_warm > 0,
        Printf.sprintf "%d warm run(s) recorded no cache hit" !missed_warm );
      ( aggregate < 2.0,
        Printf.sprintf "aggregate warm speedup %.1fx below the 2x bar"
          aggregate );
    ]

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
        let pr = probe_prefix stg in
        let p = pr.summary and g = pr.reach in
        let source =
          if Lint.prescreen stg <> None then "lockrel"
          else if p.Prefix_rules.s_csc = Some true then "prefix"
          else "none"
        in
        let noncut = p.Prefix_rules.s_events - p.Prefix_rules.s_cutoffs in
        ( pr.agree,
          Printf.sprintf "%-16s %8d %8d %7d %7d %10.4f %10.4f %6.1fx %-6s %s\n"
            name (Reach.n_states g) (Reach.n_edges g) p.Prefix_rules.s_events
            noncut pr.prefix_s pr.explicit_s
            (if pr.prefix_s > 0.0 then pr.explicit_s /. pr.prefix_s else nan)
            (if pr.agree then "yes" else "NO")
            source ))
      families
  in
  List.iter (fun (_, line) -> print_string line) rows;
  let failures = List.length (List.filter (fun (agree, _) -> not agree) rows) in
  verdict "E11" ~ok:"every prefix verdict matches the explicit graph"
    [
      ( failures > 0,
        Printf.sprintf "%d benchmark(s) disagree with ground truth" failures );
    ]

(* ------------------------------------------------------------------ *)
(* E12: solver-core microbenchmarks — new engines vs the references    *)
(* ------------------------------------------------------------------ *)

(* The BDD workloads are engine-generic, instantiated once with the
   struct-of-arrays [Bdd] and once with the boxed reference [Bdd_ref]
   (the pre-rewrite implementation, kept in the test-support library as
   the oracle), so the "before" side is measured from the same binary.  Every workload
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
  val restrict : manager -> node -> var:int -> value:bool -> node
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
   the op mix (ite-build, or/and/not/xor, quantification by cofactors)
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
  (* quantification by cofactors, one variable at a time *)
  let exists vars f =
    List.fold_left
      (fun f v ->
        E.bor mgr
          (E.restrict mgr f ~var:v ~value:false)
          (E.restrict mgr f ~var:v ~value:true))
      f vars
  in
  let checksum = ref 0 in
  for i = 0 to n_signals - 1 do
    for j = i + 1 to n_signals - 1 do
      let union = E.bor mgr regions.(i) regions.(j) in
      let uncovered = E.band mgr regions.(i) (E.bnot mgr regions.(j)) in
      let flips = E.bxor mgr regions.(i) regions.(j) in
      let quant = exists [ i; j ] union in
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
          Dpll_ref.solve ~deadline:(Deadline.of_limit (Some 10.0)) cnf)
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
    [ "alex-nonfc"; "nak-pa"; "sbuf-ram-write"; "atod" ];
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
  verdict "E12" ~ok:"checksums agree, verdicts agree, speedup >= 2x"
    [
      ( !mismatches > 0,
        Printf.sprintf "%d BDD workload checksum mismatch(es)" !mismatches );
      ( !cnf_mismatches > 0,
        Printf.sprintf "%d CDCL/DPLL verdict mismatch(es)" !cnf_mismatches );
      ( aggregate < 2.0,
        Printf.sprintf "aggregate BDD speedup %.1fx below the 2x bar" aggregate
      );
    ]

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
(* E13: partition plan audit — dedup savings                          *)
(* ------------------------------------------------------------------ *)

(* Per benchmark: the plan audit's cost and findings, the solver calls
   of one synthesis (counter-differenced, not trusted from a flag), the
   modules it replayed from a twin, and the stale-analysis count under
   the M4 ascending-risk solve order.  Gates on three hard facts: the
   audit finds no M1/M5 violation on the shipped suite, every benchmark
   whose plan has twins and whose run calls the solver replays at least
   one cone, and every run verifies. *)
let partition_table () =
  print_endline
    "== E13: partition plan — M-rule audit, cone dedup, M4 solve order ==";
  Printf.printf "%-16s %7s %5s %5s %8s | %6s %8s | %7s\n" "STG" "outputs"
    "dups" "risk" "plan(s)" "calls" "replayed" "stale";
  let failures = ref 0 in
  List.iter
    (fun (e : Bench_suite.entry) ->
      let stg = e.Bench_suite.build () in
      let plan, plan_s, dups = probe_partition stg in
      let before = Counter.get Counter.solver in
      let r = Mpart.synthesize stg in
      let calls = Counter.get Counter.solver - before in
      let replayed = List.length r.Mpart.replayed in
      if plan.Partition_check.p_violations <> [] then begin
        incr failures;
        Printf.printf "%-16s FAIL: %d M1/M5 violation(s) in the plan\n"
          e.Bench_suite.name
          (List.length plan.Partition_check.p_violations)
      end;
      (match Mpart.verify r with
      | None -> ()
      | Some err ->
        incr failures;
        Printf.printf "%-16s FAIL: the run does not verify: %s\n"
          e.Bench_suite.name err);
      if dups > 0 && calls > 0 && replayed = 0 then begin
        incr failures;
        Printf.printf "%-16s FAIL: %d twin(s) but no cone replayed\n"
          e.Bench_suite.name dups
      end;
      Printf.printf "%-16s %7d %5d %5d %7.3fs | %6d %8d | %7d\n%!"
        e.Bench_suite.name
        (List.length plan.Partition_check.p_cones)
        dups
        (List.length plan.Partition_check.p_risky)
        plan_s calls replayed r.Mpart.stale_analyses)
    Bench_suite.all;
  verdict "E13" ~ok:"plans audit clean, twins replay, every run verifies"
    [ (!failures > 0, Printf.sprintf "%d failure(s)" !failures) ]

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

(* ------------------------------------------------------------------ *)
(* The experiment registry: dispatch, [all] and the usage message      *)
(* ------------------------------------------------------------------ *)

(* A table takes no argument; [all] runs every table, in this order,
   and ignores their exit codes.  A command takes the rest of the
   command line and is run only by name. *)
type experiment = Table of (unit -> int) | Command of (string list -> int)

let table f = Table (fun () -> f (); 0)

let experiments =
  [
    ("table1", table table1);  (* E1: Table 1, and E4: area summary *)
    ("clauses", table clauses);  (* E2: mmu0-style formula sizes *)
    ("scaling-methods", table scaling_methods);  (* E3: runtime scaling *)
    ("modules", table modules);  (* E5: partition statistics *)
    ("hazard", table hazard_table);  (* E9: static H1-H5 vs dynamic *)
    ("cache", Table cache_table);  (* E10: cold vs warm cache *)
    ("prefix", Table prefix_table);  (* E11: prefix vs explicit graph *)
    ("solver", Table solver_table);  (* E12: solver-core micro *)
    ("partition", Table partition_table);  (* E13: plan audit + replay *)
    ("ablation", table ablation);  (* default vs BDD backend *)
    (* [json NAME..]: write BENCH_results.json, one [row] per child *)
    ("json", Command json);
    (* [row NAME]: one trajectory row as JSON on stdout *)
    ("row", Command row);
    (* [check FRESH BASELINE]: the regression gate over two trajectories *)
    ( "check",
      Command
        (function
        | [ fresh; base ] -> check fresh base
        | _ ->
          Printf.eprintf "usage: bench check FRESH.json BASELINE.json\n";
          2) );
  ]

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let rest =
    if Array.length Sys.argv > 2 then
      Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    else []
  in
  match (which, List.assoc_opt which experiments) with
  | _, Some (Table run) -> exit (run ())
  | _, Some (Command run) -> exit (run rest)
  | "all", None ->
    List.iteri
      (fun i (_, e) ->
        match e with
        | Table run ->
          if i > 0 then print_newline ();
          ignore (run () : int)
        | Command _ -> ())
      experiments
  | other, None ->
    Printf.eprintf "unknown bench %s (expected %s|all)\n" other
      (String.concat "|" (List.map fst experiments));
    exit 2
