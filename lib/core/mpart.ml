let src = Logs.Src.create "mpsyn.mpart" ~doc:"modular partitioning synthesis"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  backtrack_limit : int option;
  time_limit : float option;
  max_states : int;
  hazard_free : bool;
  backend : [ `Sat | `Dpll | `Bdd ];
  dedup_cones : bool;
  jobs : int;
  cache : Cache_store.t option;
}

let default_config =
  {
    backtrack_limit = None;
    time_limit = None;
    max_states = 200_000;
    hazard_free = false;
    backend = `Sat;
    dedup_cones = true;
    jobs = Pool.default_jobs ();
    cache = None;
  }

(* ------------------------------------------------------------------ *)
(* Content-addressed memoization of the solver-independent stages      *)
(* ------------------------------------------------------------------ *)

(* Everything a cached result depends on besides the content digest.
   [jobs] is deliberately absent: results are bit-identical for any
   pool width, so entries are shared across --jobs settings.  The
   engines are absent because they are chosen from the complete graph,
   itself a function of the specification and the options below. *)
let fingerprint config =
  [
    ( "backend",
      match config.backend with `Sat -> "sat" | `Dpll -> "dpll" | `Bdd -> "bdd"
    );
    ("hazard_free", string_of_bool config.hazard_free);
    ("dedup_cones", string_of_bool config.dedup_cones);
    ("max_states", string_of_int config.max_states);
    ( "backtrack_limit",
      match config.backtrack_limit with
      | None -> "none"
      | Some n -> string_of_int n );
    ( "time_limit",
      match config.time_limit with
      | None -> "none"
      | Some t -> Printf.sprintf "%.6f" t );
  ]

(* [memoize config ~stage ~params digest compute]: look the stage result
   up in the configured store (if any); on a miss compute and publish.
   Only successful computations are cached — a raise (SAT budget
   exhausted, inconsistent graph) propagates without leaving an entry. *)
let memoize config ~stage ~params digest compute =
  match config.cache with
  | None -> compute ()
  | Some store -> (
    let key = Cache_key.entry ~stage ~params digest in
    match Cache_store.get store key with
    | Some v -> v
    | None ->
      let v = compute () in
      Cache_store.put store key v;
      v)

(* Cover minimization memo ({!Derive.cover_memo}): the minimized cover
   depends on exactly (width, onset, offset). *)
let memo_cover_of config : Derive.cover_memo =
 fun ~width ~onset ~offset compute ->
  match config.cache with
  | None -> compute ()
  | Some _ ->
    let buf = Buffer.create 256 in
    List.iter (fun m -> Buffer.add_string buf (string_of_int m ^ ",")) onset;
    Buffer.add_char buf '/';
    List.iter (fun m -> Buffer.add_string buf (string_of_int m ^ ",")) offset;
    memoize config ~stage:"cover"
      ~params:[ ("width", string_of_int width) ]
      (Cache_key.string_digest (Buffer.contents buf))
      compute

type formula_size = Csc_direct.formula_size = { vars : int; clauses : int }

type module_report = {
  output_name : string;
  input_set : string list;
  immediate : string list;
  kept_extras : string list;
  module_states : int;
  module_edges : int;
  module_conflicts : int;
  new_signals : string list;
  formulas : formula_size list;
}

type result = {
  complete : Sg.t;
  final : Sg.t;
  expanded : Sg.t;
  functions : Derive.func list;
  modules : module_report list;
  fallback : module_report option;
  certificate : bool;
  plan : Partition_check.summary;
  replayed : string list;
  stale_analyses : int;
}

exception Synthesis_failed of string

(* Count of semi-modularity violations after expansion — the quantity a
   candidate labeling must not increase.  Comparing against the graph's
   own baseline (rather than demanding zero) keeps module-level checks
   meaningful: a quotient can carry artifact violations the module is
   not responsible for. *)
let sm_violations sg0 =
  List.length (Persistency.violations (Sg_expand.expand sg0))

(* What a per-module CSC solution costs to recompute and what it is
   safe to replay: the accepted state-signal labelings plus the SAT
   metrics.  The cache key is the module graph's content digest — the
   partitioned representation is exactly what keeps this key local:
   editing one output's cone leaves every other module's digest (and
   cached solution) intact, which is the incremental-re-synthesis
   story. *)
type module_solution = {
  sol_extras : Sg.extra array;
  sol_formulas : formula_size list;
}

(* Solve one modular graph and propagate the new signals back.  Returns
   the updated complete graph, the new signal names, and SAT metrics. *)
let solve_module ~config ~deadline ~fresh_name complete
    (inp : Input_derivation.t) =
  let module_sg = inp.Input_derivation.module_sg in
  let output_name = Sg.signal_name complete inp.Input_derivation.output in
  let module_output = Sg.find_signal module_sg output_name in
  let baseline = sm_violations module_sg in
  let compute () =
    let report =
      Modular_sat.solve ?backtrack_limit:config.backtrack_limit ~deadline
        ~backend:config.backend
        ~accept:(fun solved -> sm_violations solved <= baseline)
        ~output:module_output module_sg
    in
    match report.Modular_sat.outcome with
    | Modular_sat.Gave_up reason -> Error reason
    | Modular_sat.Solved { new_extras; _ } ->
      Ok { sol_extras = new_extras; sol_formulas = report.Modular_sat.formulas }
  in
  (* Only solved modules are cached; a gave-up verdict depends on the
     budget and must be retried, never replayed. *)
  let solved =
    match config.cache with
    | None -> compute ()
    | Some store -> (
      let key =
        Cache_key.entry ~stage:"module-csc"
          ~params:(("output", output_name) :: fingerprint config)
          (Sg.digest module_sg)
      in
      match Cache_store.get store key with
      | Some sol -> Ok sol
      | None -> (
        match compute () with
        | Ok sol ->
          Cache_store.put store key sol;
          Ok sol
        | Error _ as e -> e))
  in
  match solved with
  | Error reason ->
    raise
      (Synthesis_failed
         (Printf.sprintf "module %s: SAT %s exceeded" output_name
            (Dpll.string_of_abort_reason reason)))
  | Ok sol ->
    let complete = ref complete in
    let names = ref [] in
    Array.iter
      (fun (x : Sg.extra) ->
        let name = fresh_name () in
        names := name :: !names;
        complete :=
          Propagation.propagate !complete ~cover:inp.Input_derivation.cover
            ~name ~values:x.Sg.values)
      sol.sol_extras;
    (!complete, List.rev !names, sol)

let module_report complete (inp : Input_derivation.t)
    (sat : module_solution option) ~conflicts ~new_signals =
  {
    output_name = Sg.signal_name complete inp.Input_derivation.output;
    input_set = List.map (Sg.signal_name complete) inp.Input_derivation.input_set;
    immediate = List.map (Sg.signal_name complete) inp.Input_derivation.immediate;
    kept_extras = inp.Input_derivation.kept_extras;
    module_states = Sg.n_states inp.Input_derivation.module_sg;
    module_edges = Sg.n_edges inp.Input_derivation.module_sg;
    module_conflicts = conflicts;
    new_signals;
    formulas = (match sat with None -> [] | Some s -> s.sol_formulas);
  }

(* A derived module, described for the partition auditor against the
   complete graph it was cut from. *)
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

let fresh_names () =
  let counter = ref 0 in
  fun () ->
    let n = Printf.sprintf "n%d" !counter in
    incr counter;
    n

(* One output's module analyzed against [g]: its input set, quotient and
   modular conflict count.  When the complete graph already has CSC
   ([certificate]), the module quotients need no state signals: conflict
   counting and the SAT engine are skipped outright.  Artifact conflicts
   a quotient would show are exactly the pairs the complete graph proves
   spurious. *)
let analyze ~certificate g o =
  Log.debug (fun m -> m "deriving module for output %s" (Sg.signal_name g o));
  let inp = Input_derivation.determine g ~output:o in
  let conflicts =
    if certificate then 0
    else
      Csc.n_output_conflicts inp.Input_derivation.module_sg
        ~output:
          (Sg.find_signal inp.Input_derivation.module_sg (Sg.signal_name g o))
  in
  (o, inp, conflicts)

(* Stage 1, the partition plan: each output analyzed against the
   complete graph (the first solve batch), audited by the static M
   rules, and put in M4 order — low-risk modules first, so the
   re-analyses their insertions force concentrate where they were
   inevitable. *)
let plan ~config ~certificate complete =
  let outputs =
    List.filter (Sg.non_input complete) (List.init (Sg.n_signals complete) Fun.id)
  in
  let analyses =
    Pool.map_list ~jobs:config.jobs (analyze ~certificate complete) outputs
  in
  let summary =
    Partition_check.summarize ~complete
      (List.map (fun (_, inp, conflicts) -> cone_of inp conflicts) analyses)
  in
  let rank = Hashtbl.create 8 in
  List.iteri (fun i n -> Hashtbl.replace rank n i) summary.Partition_check.p_order;
  let rank_of (o, _, _) =
    Option.value
      (Hashtbl.find_opt rank (Sg.signal_name complete o))
      ~default:max_int
  in
  let by_rank a b = compare (rank_of a) (rank_of b) in
  (List.stable_sort by_rank analyses, summary)

(* Stage 2, the insertion: module solves, propagation and the global
   fallback pass.  Returns the result with [final] the post-insertion
   graph and no logic yet, the fresh-name generator, and each output's
   support in complete-graph names. *)
let insert ~config ~deadline ~certificate ~plan:(plan_analyses, plan) complete =
  let fresh_name = fresh_names () in
  let current = ref complete in
  let reports = ref [] in
  let supports : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  (* The solve/propagate stage mutates the shared complete graph and
     keeps the plan's sequential order; whenever it lands new state
     signals in the graph, the precomputed analyses of the outputs not
     yet consumed are stale (a new signal can separate their conflicts
     or join their module) and are recomputed against the updated graph
     in a fresh parallel batch.  Every consumed analysis was therefore
     computed against exactly the graph the sequential loop would have
     used, so results are bit-identical for any [jobs]; with [jobs = 1]
     outputs are analyzed one at a time, reproducing the historical
     work pattern as well. *)
  let analyze = analyze ~certificate in
  (* M3 consumption: canonicalized CSC solutions keyed by the cone
     digest of the module they solved.  A later module with the same
     digest is the same graph up to state renaming, so the stored
     solution replays through the two renumberings — no second SAT
     call. *)
  let solutions : (string, Fourval.t array list) Hashtbl.t =
    Hashtbl.create 8
  in
  let replayed = ref [] in
  let stale_analyses = ref 0 in
  (* Solve one analyzed module; returns [true] when the complete graph
     gained state signals (invalidating later analyses). *)
  let consume (o, inp, conflicts) =
    Log.debug (fun m ->
        m "module %s: %d states, solving"
          (Sg.signal_name complete o)
          (Sg.n_states inp.Input_derivation.module_sg));
    let solve_fresh ?digest_perm () =
      let c, names, r =
        solve_module ~config ~deadline ~fresh_name !current inp
      in
      (match digest_perm with
      | Some (digest, perm) when config.dedup_cones ->
        let inv = Array.make (Array.length perm) 0 in
        Array.iteri (fun t ci -> inv.(ci) <- t) perm;
        let canon =
          Array.to_list
            (Array.map
               (fun (x : Sg.extra) ->
                 Array.init (Array.length perm) (fun ci ->
                     x.Sg.values.(inv.(ci))))
               r.sol_extras)
        in
        Hashtbl.replace solutions digest canon
      | _ -> ());
      (c, names, Some r)
    in
    let updated, new_signals, sat =
      if conflicts = 0 then (!current, [], None)
      else begin
        let module_sg = inp.Input_derivation.module_sg in
        let local_out =
          Sg.find_signal module_sg (Sg.signal_name complete o)
        in
        let digest, perm =
          Partition_check.canonical_form ~output:local_out module_sg
        in
        match
          if config.dedup_cones then Hashtbl.find_opt solutions digest
          else None
        with
        | None -> solve_fresh ~digest_perm:(digest, perm) ()
        | Some canon -> (
          match
            let acc = ref !current in
            let names = ref [] in
            List.iter
              (fun (vc : Fourval.t array) ->
                let name = fresh_name () in
                names := name :: !names;
                let values =
                  Array.init (Sg.n_states module_sg) (fun t -> vc.(perm.(t)))
                in
                acc :=
                  Propagation.propagate !acc
                    ~cover:inp.Input_derivation.cover ~name ~values)
              canon;
            (!acc, List.rev !names)
          with
          | updated, names ->
            Log.debug (fun m ->
                m "module %s: duplicate cone, replaying %d state signal(s)"
                  (Sg.signal_name complete o)
                  (List.length names));
            replayed := Sg.signal_name complete o :: !replayed;
            (updated, names, None)
          | exception Sg.Inconsistent _ ->
            (* Cannot happen for a true twin (the isomorphism transports
               edge consistency), but a failed replay must degrade to a
               normal solve, never to a wrong graph. *)
            solve_fresh ())
      end
    in
    let changed = updated != !current in
    current := updated;
    Hashtbl.replace supports
      (Sg.signal_name complete o)
      (List.map (Sg.signal_name complete) inp.Input_derivation.input_set
      @ inp.Input_derivation.kept_extras @ new_signals);
    reports := module_report !current inp sat ~conflicts ~new_signals :: !reports;
    changed
  in
  (* Analysis batches are [jobs] wide: as wide as the pool can run
     concurrently, so no parallelism is lost, while a graph mutation
     wastes at most [jobs - 1] precomputed analyses instead of every
     pending output's. *)
  let rec split_batch k = function
    | rest when k = 0 -> ([], rest)
    | [] -> ([], [])
    | o :: rest ->
      let batch, deferred = split_batch (k - 1) rest in
      (o :: batch, deferred)
  in
  let rec run_batches pending =
    match pending with
    | [] -> ()
    | _ ->
      let batch, deferred = split_batch (max 1 config.jobs) pending in
      stale_analyses := !stale_analyses + List.length batch;
      let analyzed = Pool.map_list ~jobs:config.jobs (analyze !current) batch in
      (* consume in order; on graph change the rest of the batch is stale *)
      let rec go = function
        | [] -> []
        | a :: rest ->
          if consume a then List.map (fun (o, _, _) -> o) rest else go rest
      in
      let stale = go analyzed in
      run_batches (stale @ deferred)
  in
  (* First pass over the plan analyses (all computed against [complete],
     which is exactly [!current] until the first mutation); once a solve
     lands state signals, the not-yet-consumed outputs fall back to the
     jobs-wide re-analysis batches. *)
  let rec consume_plan = function
    | [] -> []
    | a :: rest ->
      if consume a then List.map (fun (o, _, _) -> o) rest
      else consume_plan rest
  in
  run_batches (consume_plan plan_analyses);
  (* Fallback: conflicts invisible to every module. *)
  let fallback = ref None in
  Log.debug (fun m ->
      m "modules done: %d conflicts remain" (Csc.n_conflicts !current));
  if not (Csc.csc_satisfied !current) then begin
    let remaining = Csc.conflict_pairs !current in
    let baseline = sm_violations !current in
    let r =
      Modular_sat.solve_pairs ?backtrack_limit:config.backtrack_limit
        ~deadline ~backend:config.backend
        ~accept:(fun solved -> sm_violations solved <= baseline)
        ~resolve:remaining !current
    in
    match r.Modular_sat.outcome with
    | Modular_sat.Gave_up _ ->
      raise (Synthesis_failed "global cleanup pass exhausted its SAT budget")
    | Modular_sat.Solved { new_extras; _ } ->
      let acc = ref !current in
      let names = ref [] in
      Array.iter
        (fun (x : Sg.extra) ->
          let name = fresh_name () in
          names := name :: !names;
          acc := Sg.add_extra !acc ~name ~values:x.Sg.values)
        new_extras;
      current := !acc;
      fallback :=
        Some
          {
            output_name = "<global>";
            input_set = [];
            immediate = [];
            kept_extras = [];
            module_states = Sg.n_states !current;
            module_edges = Sg.n_edges !current;
            module_conflicts = List.length remaining;
            new_signals = List.rev !names;
            formulas = r.Modular_sat.formulas;
          }
  end;
  ( {
      complete;
      final = !current;
      expanded = !current;
      functions = [];
      modules = List.rev !reports;
      fallback = !fallback;
      certificate;
      plan;
      replayed = List.rev !replayed;
      stale_analyses = !stale_analyses;
    },
    fresh_name,
    List.of_seq (Hashtbl.to_seq supports) )

(* Stage 3, the implementation of the post-insertion graph: the
   minimized labeling, its expansion, the logic, and the global redo's
   report if one ran. *)
let implement ~config ~deadline ~fresh_name ~supports complete current =
  let supports = ref supports in
  (* All conflicts are resolved; serialize the inserted transitions so
     that expansion splits as few states as possible.  Minimization and
     expansion both have known blind spots: a same-base-code pair can
     end up valued (Up, Dn) — distinguished before expansion, colliding
     after it (the strict-0/1 rule of the encoding exists precisely
     because excited values do not survive expansion) — and an excited
     region completed across the closing edges of a concurrency diamond
     serializes the inserted transition before each of the diamond's
     events, withdrawing the enabledness of one when the other fires: a
     semi-modularity violation the conformance oracle observes as a
     gate-level hazard.  So a labeling is accepted only when its
     expansion both satisfies CSC and stays semi-modular; minimization
     steps that would break either are dropped, and remaining
     expansion-born conflicts are repaired with bounded direct passes. *)
  Log.debug (fun m -> m "minimizing excitation regions");
  let implementable sg0 =
    let e = Sg_expand.expand sg0 in
    Csc.csc_satisfied e && Persistency.is_semi_modular e
  in
  let minimize_safely sg0 =
    (* one extra at a time, keeping a minimization only when the expanded
       graph still satisfies CSC and semi-modularity *)
    let acc = ref sg0 in
    for index = 0 to Sg.n_extras sg0 - 1 do
      let candidate = Region_minimize.minimize_extra !acc ~index in
      if implementable candidate then acc := candidate
    done;
    !acc
  in
  let final =
    if implementable current then minimize_safely current else current
  in
  let rec repair expanded round =
    Log.debug (fun m ->
        m "expansion round %d: %d states, %d conflicts" round
          (Sg.n_states expanded) (Csc.n_conflicts expanded));
    if Csc.csc_satisfied expanded then expanded
    else if round > 4 then
      raise (Synthesis_failed "expansion repair did not converge")
    else begin
      let baseline = sm_violations expanded in
      let r =
        Modular_sat.solve_pairs ?backtrack_limit:config.backtrack_limit
          ~deadline ~backend:config.backend
          ~accept:(fun solved -> sm_violations solved <= baseline)
          ~resolve:(Csc.conflict_pairs expanded) expanded
      in
      match r.Modular_sat.outcome with
      | Modular_sat.Gave_up _ ->
        raise (Synthesis_failed "expansion repair exhausted its SAT budget")
      | Modular_sat.Solved { new_extras; _ } ->
        let acc = ref expanded in
        Array.iter
          (fun (x : Sg.extra) ->
            acc := Sg.add_extra !acc ~name:(fresh_name ()) ~values:x.Sg.values)
          new_extras;
        let solved = !acc in
        let solved' =
          let m = Region_minimize.minimize solved in
          if Csc.csc_satisfied (Sg_expand.expand m) then m else solved
        in
        repair (Sg_expand.expand solved') (round + 1)
    end
  in
  let expanded = repair (Sg_expand.expand final) 0 in
  let redo = ref None in
  (* Safety net: if the composition of per-module insertions is still
     hazardous globally (modules validate against their quotient views,
     which can hide a diamond two signals share), redo the whole
     insertion on the source graph with every candidate labeling
     validated against global expansion semi-modularity.  Module
     supports are dropped — the redone signals owe nothing to the
     per-module input sets. *)
  let expanded =
    if Persistency.is_semi_modular expanded then expanded
    else begin
      Log.debug (fun m ->
          m "modular composition lost semi-modularity; global re-insertion");
      let r =
        Modular_sat.solve_pairs ?backtrack_limit:config.backtrack_limit
          ~deadline ~backend:config.backend
          ~accept:implementable
          ~resolve:(Csc.conflict_pairs complete) complete
      in
      match r.Modular_sat.outcome with
      | Modular_sat.Gave_up _ ->
        raise
          (Synthesis_failed
             "no semi-modular state-signal insertion within the SAT budget")
      | Modular_sat.Solved { new_extras; _ } ->
        supports := [];
        let acc = ref complete in
        let names = ref [] in
        Array.iter
          (fun (x : Sg.extra) ->
            let name = fresh_name () in
            names := name :: !names;
            acc := Sg.add_extra !acc ~name ~values:x.Sg.values)
          new_extras;
        redo :=
          Some
            {
              output_name = "<global redo>";
              input_set = [];
              immediate = [];
              kept_extras = [];
              module_states = Sg.n_states !acc;
              module_edges = Sg.n_edges !acc;
              module_conflicts = List.length (Csc.conflict_pairs complete);
              new_signals = List.rev !names;
              formulas = r.Modular_sat.formulas;
            };
        Sg_expand.expand (minimize_safely !acc)
    end
  in
  (* Logic derivation: outputs over their module supports; inserted state
     signals over a greedily reduced support. *)
  let support_of s =
    let name = Sg.signal_name expanded s in
    match List.assoc_opt name !supports with
    | None -> None
    | Some names ->
      Some
        (List.sort_uniq Int.compare
           (List.filter_map
              (fun n ->
                match Sg.find_signal expanded n with
                | id -> Some id
                | exception Not_found -> None)
              names))
  in
  let functions =
    Derive.synthesize ~memo_cover:(memo_cover_of config) ~support_of expanded
  in
  let functions =
    if config.hazard_free then
      List.map (Hazard.hazard_free_enlargement expanded) functions
    else functions
  in
  (final, expanded, functions, !redo)

(* The one flow behind every entry point: plan, insert, implement. *)
let synthesize_complete ~config ~deadline complete =
  let certificate = Csc.csc_satisfied complete in
  let plan = plan ~config ~certificate complete in
  let r, fresh_name, supports =
    insert ~config ~deadline ~certificate ~plan complete
  in
  let final, expanded, functions, redo =
    implement ~config ~deadline ~fresh_name ~supports complete r.final
  in
  let fallback = if redo = None then r.fallback else redo in
  { r with final; expanded; functions; fallback }

(* A whole synthesis run keyed by the complete state graph's content:
   the entry carries every downstream stage at once — per-output
   modular projections, CSC solutions, propagated expansions, and
   minimized covers.  Each public entry turns [config.time_limit] into
   one wall-clock deadline that every module, cleanup, repair and global
   pass shares, so the limit bounds the whole run at any [jobs]. *)
let synthesize_sg ?(config = default_config) complete =
  let deadline = Deadline.of_limit config.time_limit in
  memoize config ~stage:"synth-sg" ~params:(fingerprint config)
    (Sg.digest complete)
    (fun () -> synthesize_complete ~config ~deadline complete)

(* The partial-order analysis behind `mpsyn lint --prefix`: a complete
   finite prefix of the STG's unfolding, with the exact U1-U4 verdicts
   computed on it.  The summary is plain data (no timings, no machine
   state) and deterministic for any pool width, so it is cached by the
   specification digest alone — shared across --jobs settings. *)
let prefix_summary ?(jobs = 1) config stg =
  memoize config ~stage:"prefix" ~params:[] (Cache_key.stg_digest stg)
    (fun () -> Prefix_rules.analyze ~jobs stg)

let engine_threshold = 2048

(* The constraint engine: BDD-first for big state spaces, the default
   WalkSAT+DPLL hybrid otherwise.  Only the default [`Sat] is
   overridden; an explicit --backend always wins. *)
let choose_backend (config : config) ~state_bound =
  match (config.backend, state_bound) with
  | `Sat, Some n when n >= engine_threshold -> `Bdd
  | b, _ -> b

(* Reachability exploration + consistent state assignment, keyed by the
   canonical [.g] digest of the specification.  The explicit sweep runs
   first, capped at [engine_threshold]; a net that overflows it is
   explored again by the symbolic engine under the user's cap.  Both
   engines build the same graph byte for byte, so the choice only
   decides how fast, and one "sg" stage serves either. *)
let complete_of_stg config stg =
  memoize config ~stage:"sg"
    ~params:[ ("max_states", string_of_int config.max_states) ]
    (Cache_key.stg_digest stg)
    (fun () ->
      let cap = min engine_threshold config.max_states in
      let engine, sg =
        match Sg.of_stg ~max_states:cap ~backend:`Explicit stg with
        | sg -> ("explicit", sg)
        | exception Reach.Too_many_states _ when config.max_states > cap ->
          ( "symbolic",
            Sg.of_stg ~max_states:config.max_states ~backend:`Symbolic stg )
      in
      Log.debug (fun m ->
          m "reachability: %s engine, %d states (threshold %d)" engine
            (Sg.n_states sg) engine_threshold);
      sg)

(* The partition plan as a standalone artifact (`mpsyn lint
   --partition`): the plan stage with real conflict counts (no
   certificate zeroing — the plan describes the partition, not one
   synthesis run's shortcuts).  The summary is plain data, deterministic
   for any pool width, and depends only on the specification and the
   state cap, so it is memoized by the STG digest alone. *)
let partition_summary ?jobs config stg =
  let config =
    match jobs with Some jobs -> { config with jobs } | None -> config
  in
  memoize config ~stage:"plan"
    ~params:[ ("max_states", string_of_int config.max_states) ]
    (Cache_key.stg_digest stg)
    (fun () ->
      snd (plan ~config ~certificate:false (complete_of_stg config stg)))

(* The whole run is keyed by the specification, so a warm run elides
   even the reachability exploration. *)
let synthesize ?(config = default_config) stg =
  let deadline = Deadline.of_limit config.time_limit in
  memoize config ~stage:"synth" ~params:(fingerprint config)
    (Cache_key.stg_digest stg)
    (fun () ->
      let complete = complete_of_stg config stg in
      let backend =
        choose_backend config ~state_bound:(Some (Sg.n_states complete))
      in
      synthesize_complete ~config:{ config with backend } ~deadline complete)

let synthesize_best = synthesize

let initial_states r = Sg.n_states r.complete
let initial_signals r = Sg.n_signals r.complete
let final_states r = Sg.n_states r.expanded
let final_signals r = Sg.n_signals r.expanded
let area_literals r = Derive.total_literals r.functions
let n_state_signals r = final_signals r - initial_signals r

let verify r =
  if not (Csc.csc_satisfied r.expanded) then
    Some "expanded state graph violates CSC"
  else
    match Derive.check r.functions r.expanded with
    | [] -> None
    | (name, m) :: _ ->
      Some (Printf.sprintf "function %s disagrees with state %d" name m)

let pp_report ppf (r : result) =
  Format.fprintf ppf
    "@[<v>modular synthesis: %d -> %d states, %d -> %d signals, %d literals@,"
    (initial_states r) (final_states r) (initial_signals r) (final_signals r)
    (area_literals r);
  if r.certificate then
    Format.fprintf ppf "  CSC holds on the complete graph; SAT skipped@,";
  List.iter
    (fun m ->
      Format.fprintf ppf "  %s: |Is|=%d, %d module states, %d conflicts%s@,"
        m.output_name
        (List.length m.input_set)
        m.module_states m.module_conflicts
        (match m.new_signals with
        | [] -> ""
        | ns -> Printf.sprintf ", new {%s}" (String.concat "," ns)))
    r.modules;
  (match r.fallback with
  | None -> ()
  | Some f ->
    Format.fprintf ppf "  global fallback: new {%s}@,"
      (String.concat "," f.new_signals));
  Format.fprintf ppf "@]"
