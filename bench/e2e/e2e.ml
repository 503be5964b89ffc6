(* End-to-end benchmark of `mpsyn verilog`, run as fresh processes, with
   a per-layer breakdown timed from outside the program.  README.md in
   this directory describes the workloads, the metrics and the trace.

     e2e [run] [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
     e2e compare A.json B.json
     e2e compare BASE.json... -- CHANGE.json...

   Run from the repository root, as `dune exec bench/e2e/e2e.exe -- ...`
   (building the benchmark also builds bin/mpsyn.exe). *)

open Bench_e2e

let mpsyn = "_build/default/bin/mpsyn.exe"
let out_dir = "bench/e2e/_out"
let now = Unix.gettimeofday

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type workload = {
  name : string;
  jobs : int;  (** MPSYN_JOBS of every child, and the in-process width *)
  emit : unit -> string list;  (** writes or finds the .g inputs *)
}

let table1 () =
  Sys.readdir "data" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare
  |> List.map (Filename.concat "data")

let generated builders () =
  let dir = Filename.concat out_dir "inputs" in
  mkdir_p dir;
  List.map
    (fun build ->
      let stg = build () in
      let path = Filename.concat dir (Stg.name stg ^ ".g") in
      Gformat.write_file path stg;
      path)
    builders

let workloads =
  [
    (* The paper's suite: module SAT is the largest layer. *)
    { name = "table1-j1"; jobs = 1; emit = table1 };
    (* The same inputs through the domain pool: spawn cost plus the
       concurrent portfolio, which table1-j1 never touches. *)
    { name = "table1-j2"; jobs = 2; emit = table1 };
    (* CSC certified by prefix rule U3, so no SAT; the U4 bound picks the
       symbolic engine and input-set derivation dominates. *)
    {
      name = "rings-j1";
      jobs = 1;
      emit = generated [ (fun () -> Bench_gen.parallel_rings ~rings:6) ];
    };
    (* Large expanded graphs where module SAT is negligible and the
       stages after it (re-analysis, propagation, implementability,
       covers) decide the time; the pool wins here. *)
    {
      name = "expand-j2";
      jobs = 2;
      emit =
        generated
          [
            (fun () -> Bench_gen.concurrent_pulsers ~branches:5);
            (fun () -> Bench_gen.mixed ~stages:3 ~branches:3);
          ];
    };
  ]

(* ------------------------------------------------------------------ *)
(* Set-up: references certified in process                             *)
(* ------------------------------------------------------------------ *)

exception Setup_failed of string

type reference = {
  path : string;
  verilog : string;  (** the bytes every child must print *)
  synth_s : float;  (** in-process synthesize_best wall time (median) *)
  area : int;
  signals : int;  (** signals of the expanded graph, state signals included *)
}

let config jobs = { Mpart.default_config with jobs }

(* The netlist exactly as `mpsyn verilog` renders it. *)
let verilog_of stg (r : Mpart.result) =
  let inputs = List.map (Stg.signal_name stg) (Stg.inputs stg) in
  Netlist.to_verilog (Netlist.of_functions ~name:(Stg.name stg) ~inputs r.Mpart.functions)

let certified_reference ~jobs path =
  let fail msg = raise (Setup_failed (Printf.sprintf "%s: %s" path msg)) in
  let stg = Gformat.parse_file path in
  let t0 = now () in
  let r = Mpart.synthesize_best ~config:(config jobs) stg in
  let synth_s = now () -. t0 in
  Option.iter fail (Mpart.verify r);
  if not (Oracle.passed (Oracle.certify ~skip_when_certified:true (Oracle.impl_of_result r)))
  then fail "the conformance oracle refused the reference";
  {
    path;
    verilog = verilog_of stg r;
    synth_s;
    area = Mpart.area_literals r;
    signals = Mpart.final_signals r;
  }

(* Set-up is repeated, so that its median is steady, but a repetition
   starts only within the first few seconds: a set-up that alone takes
   longer runs once.  Every repetition must reproduce the same
   references. *)
let setup_reps = 3
let setup_budget_s = 5.

let set_up w =
  let t0 = now () in
  let once () =
    let t = now () in
    let refs = List.map (certified_reference ~jobs:w.jobs) (w.emit ()) in
    (now () -. t, refs)
  in
  let rec repeat acc =
    if acc <> [] && (List.length acc = setup_reps || now () -. t0 >= setup_budget_s)
    then List.rev acc
    else repeat (once () :: acc)
  in
  let reps = repeat [] in
  let first = snd (List.hd reps) in
  let bytes refs = List.map (fun r -> r.verilog) refs in
  if List.exists (fun (_, refs) -> bytes refs <> bytes first) reps then
    raise (Setup_failed (w.name ^ ": repeated set-ups disagree on the Verilog"));
  let refs =
    List.mapi
      (fun i r ->
        { r with synth_s = Stats.median (List.map (fun (_, rs) -> (List.nth rs i).synth_s) reps) })
      first
  in
  (List.map fst reps, refs)

(* ------------------------------------------------------------------ *)
(* Fresh-process runs                                                  *)
(* ------------------------------------------------------------------ *)

let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

(* The children see the caller's environment without any cache, job
   width or runtime settings of its own. *)
let child_env jobs =
  let ours = [ "MPSYN_JOBS"; "MPSYN_CACHE"; "OCAMLRUNPARAM" ] in
  let inherited =
    List.filter
      (fun kv -> not (List.exists (fun k -> String.starts_with ~prefix:(k ^ "=") kv) ours))
      (Array.to_list (Unix.environment ()))
  in
  Array.of_list (Printf.sprintf "MPSYN_JOBS=%d" jobs :: "OCAMLRUNPARAM=v=0x400" :: inherited)

type child = { wall : float; failure : string option; stdout : string; stderr : string }

(* Runs `mpsyn verilog path` and waits for it; a child still running at
   [timeout] seconds is killed and reaped. *)
let run_child ~env ~timeout path =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  Unix.close in_w;
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process_env mpsyn [| mpsyn; "verilog"; path |] env in_r out_w err_w in
  List.iter Unix.close [ in_r; out_w; err_w ];
  let out = Buffer.create 4096 and err = Buffer.create 1024 in
  let chunk = Bytes.create 65536 in
  let deadline = t0 +. timeout in
  (* read both pipes until the child closes them; [false] on timeout *)
  let rec pump fds =
    if fds = [] then true
    else
      let left = deadline -. now () in
      if left <= 0. then false
      else
        let ready, _, _ = restart (fun () -> Unix.select fds [] [] left) in
        let still_open fd =
          (not (List.mem fd ready))
          ||
          let k = restart (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) in
          Buffer.add_subbytes (if fd = out_r then out else err) chunk 0 k;
          k > 0
        in
        pump (List.filter still_open fds)
  in
  let finished = pump [ out_r; err_r ] in
  if not finished then Unix.kill pid Sys.sigkill;
  let _, status = restart (fun () -> Unix.waitpid [] pid) in
  let wall = now () -. t0 in
  Unix.close out_r;
  Unix.close err_r;
  let failure =
    match (finished, status) with
    | false, _ -> Some (Printf.sprintf "killed after %.0f s" timeout)
    | true, Unix.WEXITED 0 -> None
    | true, Unix.WEXITED c -> Some (Printf.sprintf "exit code %d" c)
    | true, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> Some (Printf.sprintf "signal %d" s)
  in
  { wall; failure; stdout = Buffer.contents out; stderr = Buffer.contents err }

type sample = { s_path : string; s_wall : float; gc : Gc_block.t option; ok : bool }

let run_one ~env (r : reference) =
  let c = run_child ~env ~timeout:(Float.max 60. (10. *. r.synth_s)) r.path in
  let gc = Gc_block.parse c.stderr in
  let failure =
    match c.failure with
    | Some _ as f -> f
    | None when c.stdout <> r.verilog -> Some "Verilog differs from the certified reference"
    | None when gc = None -> Some "no GC statistics on stderr"
    | None -> None
  in
  Option.iter (fun why -> Printf.eprintf "e2e: %s: %s\n%!" r.path why) failure;
  { s_path = r.path; s_wall = c.wall; gc; ok = failure = None }

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* One pass runs every input once, one child after another (a closed
   loop with a single client), in an order drawn from the seed. *)
let run_pass ~env ~rng refs =
  let t0 = now () in
  let samples = List.map (run_one ~env) (shuffle rng refs) in
  (now () -. t0, samples)

(* Passes until [seconds] have elapsed, at least one. *)
let measure ~env ~rng ~seconds refs =
  let t0 = now () in
  let rec loop acc =
    if acc <> [] && now () -. t0 >= seconds then List.rev acc
    else loop (run_pass ~env ~rng refs :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* The traced run: each layer's public functions in pipeline order     *)
(* ------------------------------------------------------------------ *)

(* The layers a synthesize_best call runs through; trace.coverage
   compares their summed spans with the call itself.  The marking sweep
   and the oracle are timed too but are not part of the call. *)
let pipeline = [ "prescreen"; "reach"; "plan"; "solve"; "propagate"; "implement"; "covers" ]

type counts = {
  mutable stale : int;
  mutable events : int;
  mutable states : int;
  mutable module_states : int;
  mutable calls : int;
  mutable clauses : int;
  mutable conflicts : int;
  mutable expanded : int;
}

let cone_of (inp : Input_derivation.t) conflicts =
  {
    Partition_check.c_output = inp.Input_derivation.output;
    c_inputs = inp.Input_derivation.input_set;
    c_immediate = inp.Input_derivation.immediate;
    c_kept_extras = inp.Input_derivation.kept_extras;
    c_module = inp.Input_derivation.module_sg;
    c_cover = inp.Input_derivation.cover;
    c_conflicts = conflicts;
  }

let sm_violations g = List.length (Persistency.violations (Sg_expand.expand g))

(* Replays one input's synthesis layer by layer, with the arguments
   Mpart passes, recording a span per layer and per call. *)
let trace_stg rec_ counts ~jobs path =
  let span name f = Span.record rec_ name f in
  let stg = Gformat.parse_file path in
  let r =
    span "Mpart.synthesize_best" (fun () ->
        Mpart.synthesize_best ~config:(config jobs) stg)
  in
  counts.stale <- counts.stale + r.Mpart.stale_analyses;
  counts.expanded <- counts.expanded + Sg.n_states r.Mpart.expanded;
  (* Mpart consults the prefix once for the CSC certificate when the
     lock relation abstains, and once more for the U4 state bound. *)
  let certified, prefix =
    span "prescreen" (fun () ->
        let analyze () = span "Prefix_rules.analyze" (fun () -> Prefix_rules.analyze ~jobs stg) in
        let certified =
          span "Lint.prescreen" (fun () -> Lint.prescreen stg) <> None
          || (analyze ()).Prefix_rules.s_csc = Some true
        in
        (certified, analyze ()))
  in
  counts.events <- counts.events + prefix.Prefix_rules.s_events;
  let state_bound =
    match prefix.Prefix_rules.s_sg_states with
    | Some _ as b -> b
    | None -> prefix.Prefix_rules.s_markings
  in
  let backend = Mpart.choose_backend (config jobs) ~state_bound in
  (* Mpart exposes only the backend half of the U4 flip; the engine half
     flips at the same bound. *)
  let engine = if backend = `Bdd then `Symbolic else `Explicit in
  let complete =
    span "reach" (fun () -> span "Sg.of_stg" (fun () -> Sg.of_stg ~backend:engine stg))
  in
  counts.states <- counts.states + Sg.n_states complete;
  span "reach.markings" (fun () ->
      let net = Stg.net stg in
      match engine with
      | `Explicit -> ignore (span "Reach.explore" (fun () -> Reach.explore net))
      | `Symbolic ->
        ignore (span "Symbolic.explore_edges" (fun () -> Symbolic.explore_edges net)));
  let outputs =
    List.filter (Sg.non_input complete) (List.init (Sg.n_signals complete) Fun.id)
  in
  let implementable g =
    let e = span "Sg_expand.expand" (fun () -> Sg_expand.expand g) in
    span "Csc.csc_satisfied" (fun () -> Csc.csc_satisfied e)
    && span "Persistency.is_semi_modular" (fun () -> Persistency.is_semi_modular e)
  in
  let final = r.Mpart.final and expanded = r.Mpart.expanded in
  let supports = Hashtbl.create 8 in
  List.iter
    (fun (m : Mpart.module_report) ->
      Hashtbl.replace supports m.output_name (m.input_set @ m.kept_extras @ m.new_signals))
    r.Mpart.modules;
  let support_of s =
    Option.map
      (fun names ->
        List.sort_uniq Int.compare
          (List.filter_map
             (fun n -> try Some (Sg.find_signal expanded n) with Not_found -> None)
             names))
      (Hashtbl.find_opt supports (Sg.signal_name expanded s))
  in
  (* The portfolio: Mpart runs every stage below once per
     module-normalization setting.  Only the winner's graphs are public,
     so they stand in for both candidates from implementation on. *)
  List.iter
    (fun normalize ->
      let analyses =
        span "plan" (fun () ->
            let analyses =
              List.map
                (fun o ->
                  let inp =
                    span "Input_derivation.determine" (fun () ->
                        Input_derivation.determine complete ~output:o)
                  in
                  let msg = inp.Input_derivation.module_sg in
                  let local = Sg.find_signal msg (Sg.signal_name complete o) in
                  let conflicts =
                    if certified then 0
                    else
                      span "Csc.n_output_conflicts" (fun () ->
                          Csc.n_output_conflicts msg ~output:local)
                  in
                  (inp, local, conflicts))
                outputs
            in
            ignore
              (span "Partition_check.summarize" (fun () ->
                   Partition_check.summarize ~complete
                     (List.map (fun (inp, _, c) -> cone_of inp c) analyses)));
            analyses)
      in
      if normalize then
        List.iter
          (fun (inp, _, _) ->
            counts.module_states <-
              counts.module_states + Sg.n_states inp.Input_derivation.module_sg)
          analyses;
      (* first-pass modules with conflicts; a duplicate cone is replayed
         by Mpart, not solved *)
      let seen = Hashtbl.create 8 in
      List.iter
        (fun ((inp : Input_derivation.t), output, conflicts) ->
          if conflicts > 0 then begin
            let msg = inp.module_sg in
            let extras =
              span "solve" (fun () ->
                  let digest, _ =
                    span "Partition_check.canonical_form" (fun () ->
                        Partition_check.canonical_form ~output msg)
                  in
                  if Hashtbl.mem seen digest then [||]
                  else begin
                    Hashtbl.add seen digest ();
                    let baseline = sm_violations msg in
                    let report =
                      span "Modular_sat.solve" (fun () ->
                          Modular_sat.solve ~backend ~normalize
                            ~accept:(fun g -> sm_violations g <= baseline)
                            ~output msg)
                    in
                    counts.calls <- counts.calls + 1;
                    counts.conflicts <- counts.conflicts + conflicts;
                    List.iter
                      (fun (f : Csc_direct.formula_size) ->
                        counts.clauses <- counts.clauses + f.Csc_direct.clauses)
                      report.Modular_sat.formulas;
                    match report.Modular_sat.outcome with
                    | Modular_sat.Solved { new_extras; _ } -> new_extras
                    | Modular_sat.Gave_up _ -> [||]
                  end)
            in
            span "propagate" (fun () ->
                ignore
                  (Array.fold_left
                     (fun (g, i) (x : Sg.extra) ->
                       ( span "Propagation.propagate" (fun () ->
                             Propagation.propagate g ~cover:inp.cover
                               ~name:(Printf.sprintf "n%d" i) ~values:x.Sg.values),
                         i + 1 ))
                     (complete, 0) extras))
          end)
        analyses;
      (* the whole graph, each minimized extra, then the expansion kept *)
      span "implement" (fun () ->
          ignore (implementable final);
          for index = 0 to Sg.n_extras final - 1 do
            ignore
              (implementable
                 (span "Region_minimize.minimize_extra" (fun () ->
                      Region_minimize.minimize_extra final ~index)))
          done;
          ignore (implementable final));
      span "covers" (fun () ->
          ignore (span "Derive.synthesize" (fun () -> Derive.synthesize ~support_of expanded))))
    [ true; false ];
  span "oracle" (fun () ->
      ignore
        (span "Oracle.certify" (fun () ->
             Oracle.certify ~skip_when_certified:true (Oracle.impl_of_result r))))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { m_name : string; unit_ : string; s : Stats.summary }

let metric m_name unit_ s = { m_name; unit_; s }
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let mib words = words *. float (Sys.word_size / 8) /. 1048576.

let end_to_end ~setup_times ~refs passes =
  let per_pass f = Stats.summarize (List.map (fun (_, ss) -> f ss) passes) in
  let walls path =
    List.concat_map
      (fun (_, ss) ->
        List.filter_map (fun s -> if s.s_path = path then Some s.s_wall else None) ss)
      passes
  in
  let ms_geomean ss = Stats.geomean (List.map (fun s -> 1000. *. s.s_wall) ss) in
  let peak ss =
    List.fold_left
      (fun m s ->
        match s.gc with Some g -> Float.max m (mib g.Gc_block.top_heap_words) | None -> m)
      0. ss
  in
  [
    metric "setup_s" "s" (Stats.summarize setup_times);
    metric "pass_s" "s" (Stats.summarize (List.map fst passes));
    metric "geomean_ms" "ms"
      {
        (per_pass ms_geomean) with
        value = Stats.geomean (List.map (fun r -> 1000. *. Stats.median (walls r.path)) refs);
      };
    metric "peak_heap_mb" "MiB" (per_pass peak);
    metric "area_literals" "literals" (Stats.exact (sum (fun r -> float r.area) refs));
    metric "final_signals" "count" (Stats.exact (sum (fun r -> float r.signals) refs));
  ]

let gc_metrics passes =
  let per_pass f =
    Stats.summarize
      (List.map (fun (_, ss) -> sum (fun s -> Option.fold ~none:0. ~some:f s.gc) ss) passes)
  in
  [
    metric "gc.alloc_mw" "Mwords" (per_pass (fun g -> g.Gc_block.allocated_words /. 1e6));
    metric "gc.minor_collections" "count" (per_pass (fun g -> g.Gc_block.minor_collections));
    metric "gc.major_collections" "count" (per_pass (fun g -> g.Gc_block.major_collections));
  ]

let layer_metrics ~pass_s spans c =
  let t name = Stats.exact (Span.total_time spans name) in
  let mw name = Stats.exact (Span.total_alloc spans name /. 1e6) in
  let n x = Stats.exact (float x) in
  let synth = Span.total_time spans "Mpart.synthesize_best" in
  [
    metric "cli.overhead_s" "s" (Stats.exact (pass_s -. synth));
    metric "pool.stale_analyses" "count" (n c.stale);
    metric "prescreen.s" "s" (t "prescreen");
    metric "prescreen.events" "count" (n c.events);
    metric "reach.s" "s" (t "reach");
    metric "reach.markings_s" "s" (t "reach.markings");
    metric "reach.states" "count" (n c.states);
    metric "reach.alloc_mw" "Mwords" (mw "reach");
    metric "plan.derive_s" "s" (t "Input_derivation.determine");
    metric "plan.conflicts_s" "s" (t "Csc.n_output_conflicts");
    metric "plan.audit_s" "s" (t "Partition_check.summarize");
    metric "plan.module_states" "count" (n c.module_states);
    metric "plan.alloc_mw" "Mwords" (mw "plan");
    metric "solve.s" "s" (t "solve");
    metric "solve.calls" "count" (n c.calls);
    metric "solve.clauses" "count" (n c.clauses);
    metric "solve.conflicts" "count" (n c.conflicts);
    metric "propagate.s" "s" (t "propagate");
    metric "implement.s" "s" (t "implement");
    metric "implement.expanded_states" "count" (n c.expanded);
    metric "implement.alloc_mw" "Mwords" (mw "implement");
    metric "covers.s" "s" (t "covers");
    metric "covers.alloc_mw" "Mwords" (mw "covers");
    metric "oracle.s" "s" (t "oracle");
    metric "trace.coverage" "ratio"
      (Stats.exact (sum (Span.total_time spans) pipeline /. synth));
  ]

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

type outcome = {
  w : workload;
  refs : reference list;
  attempted : int;
  failed : int;
  passes : int;
  e2e : metric list;
  layers : metric list;  (** empty unless traced *)
  json : Json.t;
}

let metric_json m =
  Json.Obj
    [
      ("value", Json.Num m.s.Stats.value);
      ("unit", Json.Str m.unit_);
      ("q1", Json.Num m.s.Stats.q1);
      ("q3", Json.Num m.s.Stats.q3);
      ("n", Json.Num (float m.s.Stats.n));
    ]

let metrics_json ms = Json.Obj (List.map (fun m -> (m.m_name, metric_json m)) ms)

let run_workload ~rec_ ~seed ~seconds ~trace w =
  Printf.eprintf "e2e: %s: set-up\n%!" w.name;
  let setup_times, refs = set_up w in
  Gc.compact ();
  let env = child_env w.jobs in
  let rng = Random.State.make [| seed |] in
  Printf.eprintf "e2e: %s: timed passes for %g s\n%!" w.name seconds;
  let passes = measure ~env ~rng ~seconds refs in
  let samples = List.concat_map snd passes in
  let attempted = List.length samples in
  let failed = List.length (List.filter (fun s -> not s.ok) samples) in
  let e2e = end_to_end ~setup_times ~refs passes in
  let layers =
    if not trace then []
    else begin
      Printf.eprintf "e2e: %s: traced run\n%!" w.name;
      let counts =
        {
          stale = 0;
          events = 0;
          states = 0;
          module_states = 0;
          calls = 0;
          clauses = 0;
          conflicts = 0;
          expanded = 0;
        }
      in
      rec_.Span.workload <- w.name;
      List.iter
        (fun r ->
          rec_.Span.stg <- r.path;
          Gc.compact ();
          Span.record rec_ "stg" (fun () -> trace_stg rec_ counts ~jobs:w.jobs r.path))
        refs;
      let spans = List.filter (fun (s : Span.t) -> s.workload = w.name) rec_.Span.spans in
      let pass_s = (List.find (fun m -> m.m_name = "pass_s") e2e).s.Stats.value in
      layer_metrics ~pass_s spans counts @ gc_metrics passes
    end
  in
  let per_stg =
    List.map
      (fun r ->
        let mine = List.filter (fun s -> s.s_path = r.path) (List.concat_map snd passes) in
        let ms = Stats.summarize (List.map (fun s -> 1000. *. s.s_wall) mine) in
        Json.Obj
          [
            ("stg", Json.Str r.path);
            ("median_ms", Json.Num ms.Stats.value);
            ("q1_ms", Json.Num ms.Stats.q1);
            ("q3_ms", Json.Num ms.Stats.q3);
            ("synth_ms", Json.Num (1000. *. r.synth_s));
            ( "top_heap_mb",
              match List.filter_map (fun s -> s.gc) mine with
              | [] -> Json.Null
              | gcs ->
                Json.Num
                  (Stats.median (List.map (fun g -> mib g.Gc_block.top_heap_words) gcs)) );
            ("area_literals", Json.Num (float r.area));
          ])
      refs
  in
  let json =
    Json.Obj
      ([
         ("jobs", Json.Num (float w.jobs));
         ("passes", Json.Num (float (List.length passes)));
         ("pass_walls", Json.List (List.map (fun (t, _) -> Json.Num t) passes));
         ("attempted", Json.Num (float attempted));
         ("failed", Json.Num (float failed));
         ("fail_frac", Json.Num (float failed /. float attempted));
         ("metrics", metrics_json e2e);
         ("per_stg", Json.List per_stg);
       ]
      @ if trace then [ ("layers", metrics_json layers) ] else [])
  in
  { w; refs; attempted; failed; passes = List.length passes; e2e; layers; json }

(* ------------------------------------------------------------------ *)
(* Run context                                                         *)
(* ------------------------------------------------------------------ *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let git_commit () =
  let read f = try Some (String.trim (read_file f)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" name) with
    | Some _ as c -> c
    | None ->
      Option.bind (read ".git/packed-refs") (fun packed ->
          List.find_map
            (fun line ->
              match String.split_on_char ' ' line with
              | [ c; n ] when n = name -> Some c
              | _ -> None)
            (String.split_on_char '\n' packed)))
  | head -> head

let load_1min () =
  match String.split_on_char ' ' (read_file "/proc/loadavg") with
  | l :: _ -> float_of_string_opt l
  | [] -> None
  | exception Sys_error _ -> None

let nproc = Domain.recommended_domain_count ()

let check_load when_ =
  let load = load_1min () in
  (match load with
  | Some l when l > float nproc ->
    Printf.eprintf
      "e2e: warning: 1-minute load %.2f at %s exceeds nproc %d; timings are unreliable\n%!" l
      when_ nproc
  | _ -> ());
  match load with Some l -> Json.Num l | None -> Json.Null

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let print_table o =
  Printf.printf "== %s: jobs %d, %d inputs, %d passes, %d/%d runs failed (fail_frac %g) ==\n"
    o.w.name o.w.jobs (List.length o.refs) o.passes o.failed o.attempted
    (float o.failed /. float o.attempted);
  List.iter
    (fun m ->
      Printf.printf "  %-26s %14.6f %-9s q1 %.6f  q3 %.6f  n %d\n" m.m_name m.s.Stats.value
        m.unit_ m.s.Stats.q1 m.s.Stats.q3 m.s.Stats.n)
    (o.e2e @ o.layers)

let run_cmd args =
  let chosen = ref [] and seed = ref 1 and seconds = ref 15. and trace = ref 1 in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> chosen := w :: !chosen),
        "W run workload W (repeatable; default all)" );
      ("--seed", Arg.Set_int seed, "N seed for the input order (default 1)");
      ("--seconds", Arg.Set_float seconds, "S timed seconds per workload (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 follow the timed runs with the traced run (default 1)");
    ]
  in
  let usage = "e2e [run] [--workload W]... [--seed N] [--seconds S] [--trace 0|1]" in
  (try Arg.parse_argv ~current:(ref 0) (Array.of_list ("e2e" :: args)) spec
         (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_string msg;
     exit 2);
  let selected =
    match List.rev !chosen with
    | [] -> workloads
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun w -> w.name = n) workloads with
          | Some w -> w
          | None ->
            Printf.eprintf "e2e: unknown workload %s\n" n;
            exit 2)
        names
  in
  if not (Sys.file_exists mpsyn && Sys.file_exists "BENCHMARK.json") then begin
    Printf.eprintf "e2e: run from the repository root, after building %s\n" mpsyn;
    exit 2
  end;
  mkdir_p out_dir;
  let load_start = check_load "start" in
  let rec_ = Span.create () in
  let traced = !trace <> 0 in
  let outcomes =
    try List.map (run_workload ~rec_ ~seed:!seed ~seconds:!seconds ~trace:traced) selected
    with Setup_failed msg ->
      Printf.eprintf "e2e: set-up failed: %s\n" msg;
      exit 1
  in
  let load_end = check_load "end" in
  (* the same input must give the same bytes at every job width *)
  let refs = List.concat_map (fun o -> o.refs) outcomes in
  let identical =
    List.for_all
      (fun (a : reference) ->
        List.for_all (fun (b : reference) -> a.path <> b.path || a.verilog = b.verilog) refs)
      refs
  in
  if not identical then prerr_endline "e2e: references differ across job widths";
  let context =
    Json.Obj
      [
        ("commit", match git_commit () with Some c -> Json.Str c | None -> Json.Null);
        ("nproc", Json.Num (float nproc));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("seed", Json.Num (float !seed));
        ("seconds", Json.Num !seconds);
        ("load_1min_start", load_start);
        ("load_1min_end", load_end);
      ]
  in
  let write name doc =
    let path = Filename.concat out_dir (Printf.sprintf "%s-%d.json" name !seed) in
    Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string doc));
    Printf.eprintf "e2e: wrote %s\n%!" path
  in
  write "results"
    (Json.Obj
       [
         ("schema", Json.Str "mpsyn-e2e/1");
         ("context", context);
         ("workloads", Json.Obj (List.map (fun o -> (o.w.name, o.json)) outcomes));
       ]);
  if traced then write "trace" (Span.to_json rec_.Span.spans);
  List.iter print_table outcomes;
  let attempted = List.fold_left (fun acc o -> acc + o.attempted) 0 outcomes in
  let failed = List.fold_left (fun acc o -> acc + o.failed) 0 outcomes in
  let correct = identical && failed = 0 in
  let reported o = if traced then o.layers else o.e2e in
  let key o m = match outcomes with [ _ ] -> m.m_name | _ -> o.w.name ^ "/" ^ m.m_name in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (float attempted));
            ("failed", Json.Num (float failed));
            ( "metrics",
              Json.Obj
                (List.concat_map
                   (fun o ->
                     List.map
                       (fun m ->
                         ( key o m,
                           Json.Obj
                             [ ("value", Json.Num m.s.Stats.value); ("unit", Json.Str m.unit_) ]
                         ))
                       (reported o))
                   outcomes) );
          ]));
  exit (if correct then 0 else 1)

let compare_cmd base change =
  let load f = Json.of_string (read_file f) in
  let rows =
    Verdict.compare_docs ~bench:(load "BENCHMARK.json") (List.map load base)
      (List.map load change)
  in
  List.iter
    (fun (r : Verdict.row) ->
      Printf.printf "%-10s %-14s %14.6f %14.6f  %s\n" r.workload r.metric r.base r.change
        (Verdict.to_string r.verdict))
    rows;
  exit (if List.exists (fun (r : Verdict.row) -> r.verdict = Verdict.Worse) rows then 1 else 0)

(* [compare A.json B.json], or two sets of runs:
   [compare BASE.json... -- CHANGE.json...]. *)
let () =
  let usage () =
    prerr_endline "usage: e2e compare A.json B.json | e2e compare BASE.json... -- CHANGE.json...";
    exit 2
  in
  match List.tl (Array.to_list Sys.argv) with
  | [ "compare"; a; b ] -> compare_cmd [ a ] [ b ]
  | "compare" :: files -> (
    let rec split acc = function
      | "--" :: rest -> Some (List.rev acc, rest)
      | f :: rest -> split (f :: acc) rest
      | [] -> None
    in
    match split [] files with
    | Some ((_ :: _ as base), (_ :: _ as change)) when not (List.mem "--" change) ->
      compare_cmd base change
    | _ -> usage ())
  | "run" :: args | args -> run_cmd args
