let src = Logs.Src.create "mpsyn.mpart" ~doc:"modular partitioning synthesis"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  backtrack_limit : int option;
  time_limit : float option;
  hazard_free : bool;
  backend : [ `Sat | `Dpll | `Bdd ];
  jobs : int;
  cache : Cache_store.t option;
}

let default_config =
  {
    backtrack_limit = None;
    time_limit = None;
    hazard_free = false;
    backend = `Sat;
    jobs = 1;
    cache = None;
  }

let state_cap = 200_000

(* ------------------------------------------------------------------ *)
(* Content-addressed memoization of whole per-specification results   *)
(* ------------------------------------------------------------------ *)

(* Everything a cached result depends on besides the content digest.
   [jobs] is absent: synthesis ignores it.  The engines are absent
   because they are chosen from the complete graph, itself a function
   of the specification and the options below. *)
let fingerprint config =
  [
    ( "backend",
      match config.backend with `Sat -> "sat" | `Dpll -> "dpll" | `Bdd -> "bdd"
    );
    ("hazard_free", string_of_bool config.hazard_free);
    ( "backtrack_limit",
      match config.backtrack_limit with
      | None -> "none"
      | Some n -> string_of_int n );
    ( "time_limit",
      match config.time_limit with
      | None -> "none"
      | Some t -> Printf.sprintf "%.6f" t );
  ]

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
  replayed : string list;
  stale_analyses : int;
}

exception Synthesis_failed of string

(* The acceptance test of every module and cleanup labeling: its
   expansion has no more semi-modularity violations than [g]'s own.
   Comparing against the graph's baseline (rather than demanding zero)
   keeps module-level checks meaningful: a quotient can carry artifact
   violations the module is not responsible for. *)
let no_new_violations g =
  let baseline = Sg_expand.n_violations g in
  fun solved -> Sg_expand.n_violations solved <= baseline

let fresh_names () =
  let counter = ref 0 in
  fun () ->
    let n = Printf.sprintf "n%d" !counter in
    incr counter;
    n

let columns (extras : Sg.extra array) =
  Array.to_list (Array.map (fun (x : Sg.extra) -> x.Sg.values) extras)

(* Name each value column with a fresh state signal and add it to [g]
   through [add] ({!Sg.add_extra}, or propagation through a module's
   cover).  Returns the grown graph and the new names in order. *)
let add_signals ~fresh_name add g columns =
  let g, names =
    List.fold_left
      (fun (g, names) values ->
        let name = fresh_name () in
        (add g ~name ~values, name :: names))
      (g, []) columns
  in
  (g, List.rev names)

(* A whole-graph pass (the cleanup or the global redo):
   separate the [resolve] pairs of [g] with new state signals, keeping
   only labelings [accept] allows.  Returns the grown graph, the new
   names and the formulas tried.
   @raise Synthesis_failed [what] when the solver gives up. *)
let global_pass ~config ~deadline ~fresh_name ~accept ~what ~resolve g =
  let r =
    Modular_sat.solve_pairs ?backtrack_limit:config.backtrack_limit ~deadline
      ~backend:config.backend ~accept ~resolve g
  in
  match r.Modular_sat.outcome with
  | Modular_sat.Gave_up _ -> raise (Synthesis_failed what)
  | Modular_sat.Solved { new_extras; _ } ->
    let g, names =
      add_signals ~fresh_name Sg.add_extra g (columns new_extras)
    in
    (g, names, r.Modular_sat.formulas)

let global_report output_name ~conflicts (g, new_signals, formulas) =
  {
    output_name;
    input_set = [];
    immediate = [];
    kept_extras = [];
    module_states = Sg.n_states g;
    module_edges = Sg.n_edges g;
    module_conflicts = conflicts;
    new_signals;
    formulas;
  }

(* Solve one modular graph (Figure 4): the value columns of the accepted
   state signals and the formulas tried.
   @raise Synthesis_failed naming the bound that ran out. *)
let solve_module ~config ~deadline complete (inp : Input_derivation.t) =
  let module_sg = inp.Input_derivation.module_sg in
  let output_name = Sg.signal_name complete inp.Input_derivation.output in
  let report =
    Modular_sat.solve ?backtrack_limit:config.backtrack_limit ~deadline
      ~backend:config.backend
      ~accept:(no_new_violations module_sg)
      ~output:(Sg.find_signal module_sg output_name)
      module_sg
  in
  match report.Modular_sat.outcome with
  | Modular_sat.Gave_up reason ->
    raise
      (Synthesis_failed
         (Printf.sprintf "module %s: SAT %s exceeded" output_name
            (Dpll.string_of_abort_reason reason)))
  | Modular_sat.Solved { new_extras; _ } ->
    (columns new_extras, report.Modular_sat.formulas)

let module_report complete (inp : Input_derivation.t) ~formulas ~conflicts
    ~new_signals =
  {
    output_name = Sg.signal_name complete inp.Input_derivation.output;
    input_set = List.map (Sg.signal_name complete) inp.Input_derivation.input_set;
    immediate = List.map (Sg.signal_name complete) inp.Input_derivation.immediate;
    kept_extras = inp.Input_derivation.kept_extras;
    module_states = Sg.n_states inp.Input_derivation.module_sg;
    module_edges = Sg.n_edges inp.Input_derivation.module_sg;
    module_conflicts = conflicts;
    new_signals;
    formulas;
  }

(* One output's module analyzed against [g] (Figure 2): its input set,
   quotient and modular conflict count.  When the complete graph already
   has CSC ([certificate]), the module quotients need no state signals:
   conflict counting and the SAT engine are skipped outright.  Artifact
   conflicts a quotient would show are exactly the pairs the complete
   graph proves spurious.  [context] indexes Σ, which [g] is or was
   grown from. *)
let analyze context ~certificate g o =
  Log.debug (fun m -> m "deriving module for output %s" (Sg.signal_name g o));
  let inp = Input_derivation.determine_in context g ~output:o in
  let conflicts =
    if certificate then 0
    else
      Csc.n_output_conflicts inp.Input_derivation.module_sg
        ~output:
          (Sg.find_signal inp.Input_derivation.module_sg (Sg.signal_name g o))
  in
  (o, inp, conflicts)

(* Every output's module analyzed against the complete graph, in
   output order, from one context. *)
let analyze_outputs context ~certificate complete =
  List.filter (Sg.non_input complete) (List.init (Sg.n_signals complete) Fun.id)
  |> List.map (analyze context ~certificate complete)

(* Stage 1, the partition plan: every output's analysis in the M4 solve
   order, low-risk modules first. *)
let plan context ~certificate complete =
  let analyses = analyze_outputs context ~certificate complete in
  Partition_check.solve_order
    (List.map
       (fun (o, (inp : Input_derivation.t), conflicts) ->
         (o, inp.input_set, conflicts))
       analyses)
  |> List.map (fun o -> List.find (fun (o', _, _) -> o' = o) analyses)

(* Stage 2, the insertion: Figure 6's loop over the planned outputs —
   solve each module and propagate its new signals into the complete
   graph (Figure 5), in plan order.  Once a solve has changed the graph,
   the plan's analyses (made against Σ) are stale — a new signal can
   separate an output's conflicts or join its module — so each later
   output is analyzed again against the current graph just before it
   is consumed, from the plan's [context]: every graph the loop meets
   is Σ grown by {!Sg.add_extra}.  Returns the post-insertion graph, the
   module reports, the replayed outputs and the re-analysis count. *)
let insert ~config ~deadline ~fresh_name ~certificate context analyses complete
    =
  (* M3 consumption: canonicalized CSC solutions keyed by the cone
     digest of the module they solved.  A later module with the same
     digest is the same graph up to state renaming, so the stored
     solution replays through the two renumberings — no second SAT
     call. *)
  let solutions : (string, Fourval.t array list) Hashtbl.t =
    Hashtbl.create 8
  in
  let replayed = ref [] in
  let solve_or_replay g name (inp : Input_derivation.t) =
    let module_sg = inp.Input_derivation.module_sg in
    let propagate = Propagation.propagate ~cover:inp.Input_derivation.cover in
    let digest, perm =
      Partition_check.canonical_form
        ~output:(Sg.find_signal module_sg name)
        module_sg
    in
    let solve () =
      let labelings, formulas = solve_module ~config ~deadline g inp in
      (* the first solution of a digest stays, even when a later twin's
         replay failed and it solved afresh *)
      if not (Hashtbl.mem solutions digest) then begin
        let inv = Array.make (Array.length perm) 0 in
        Array.iteri (fun t ci -> inv.(ci) <- t) perm;
        Hashtbl.add solutions digest
          (List.map
             (fun values ->
               Array.init (Array.length perm) (fun ci -> values.(inv.(ci))))
             labelings)
      end;
      let g, names = add_signals ~fresh_name propagate g labelings in
      (g, names, formulas)
    in
    match Hashtbl.find_opt solutions digest with
    | None -> solve ()
    | Some canon -> (
      let replay =
        List.map
          (fun (vc : Fourval.t array) ->
            Array.init (Sg.n_states module_sg) (fun t -> vc.(perm.(t))))
          canon
      in
      match add_signals ~fresh_name propagate g replay with
      | g, names ->
        Log.debug (fun m ->
            m "module %s: duplicate cone, replaying %d state signal(s)" name
              (List.length names));
        replayed := name :: !replayed;
        (g, names, [])
      | exception Sg.Inconsistent _ ->
        (* Cannot happen for a true twin (the isomorphism transports
           edge consistency), but a failed replay must degrade to a
           normal solve, never to a wrong graph. *)
        solve ())
  in
  let current = ref complete in
  let reports = ref [] and stale = ref 0 in
  List.iter
    (fun (o, inp, conflicts) ->
      let name = Sg.signal_name complete o in
      let inp, conflicts =
        if !current == complete then (inp, conflicts)
        else begin
          incr stale;
          let _, inp, conflicts = analyze context ~certificate !current o in
          (inp, conflicts)
        end
      in
      Log.debug (fun m ->
          m "module %s: %d states, solving" name
            (Sg.n_states inp.Input_derivation.module_sg));
      let updated, new_signals, formulas =
        if conflicts = 0 then (!current, [], [])
        else solve_or_replay !current name inp
      in
      current := updated;
      reports :=
        module_report !current inp ~formulas ~conflicts ~new_signals
        :: !reports)
    analyses;
  (!current, List.rev !reports, List.rev !replayed, !stale)

(* The cleanup pass: conflicts invisible to every module.  Under the
   certificate no module solved, so [g] is Σ and has CSC. *)
let cleanup ~config ~deadline ~fresh_name ~certificate g =
  Log.debug (fun m ->
      m "modules done: %d conflicts remain" (Csc.n_conflicts g));
  if certificate || Csc.csc_satisfied g then (g, None)
  else
    let remaining = Csc.conflict_pairs g in
    let ((g, _, _) as pass) =
      global_pass ~config ~deadline ~fresh_name ~accept:(no_new_violations g)
        ~what:"global cleanup pass exhausted its SAT budget" ~resolve:remaining
        g
    in
    (g, Some (global_report "<global>" ~conflicts:(List.length remaining) pass))

(* Stage 3, the implementation of the post-insertion graph: the
   minimized labeling, its expansion, the logic, and the global redo's
   report if one ran. *)
let implement ~config ~deadline ~fresh_name ~modules ~certificate complete
    current =
  let supports =
    List.map
      (fun m -> (m.output_name, m.input_set @ m.kept_extras @ m.new_signals))
      modules
  in
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
     gate-level hazard.  So a labeling is implementable only when its
     expansion both satisfies CSC and stays semi-modular, decided on
     the folded graph ({!Sg_expand.implementable}): minimization keeps
     one extra's step only when the labeling stays implementable, and
     the minimized labeling is judged once.  The graph that passes is
     [final], expanded once: the graph [Derive] reads.

     Once a candidate is accepted, the labeling [minimize_safely]
     returns is the last accepted candidate, so it is implementable and
     the judgement after minimization is skipped: one folded check per
     extra, and one more only when every candidate was rejected.

     Under the certificate [current] is Σ, with CSC and no state
     signal: the one decision is semi-modularity alone
     ({!Sg_expand.implementable_csc}).

     At debug level each extra's line reports the visits of
     [Region_minimize.minimize_extra] (read off {!Counter.minimize_visit},
     exact on one domain) and the check's time; the counter and the
     clock are read only at that level. *)
  let debug = Logs.Src.level src = Some Logs.Debug in
  let stamp () =
    if debug then (Counter.get Counter.minimize_visit, Unix.gettimeofday ())
    else (0, 0.)
  in
  let minimize_safely sg0 =
    let acc = ref sg0 and accepted = ref false in
    for index = 0 to Sg.n_extras sg0 - 1 do
      let before = !acc in
      let v0, _ = stamp () in
      let candidate = Region_minimize.minimize_extra before ~index in
      let v1, t1 = stamp () in
      let ok = Sg_expand.implementable candidate in
      let _, t2 = stamp () in
      if ok then begin
        acc := candidate;
        accepted := true
      end;
      Log.debug (fun m ->
          let excited g =
            Array.fold_left
              (fun n v -> if Fourval.excited v then n + 1 else n)
              0 (Sg.extras g).(index).Sg.values
          in
          m "minimized extra %d (%s): excited states %d -> %d (%d visits), %s, folded check %.2f ms"
            index (Sg.extras before).(index).Sg.xname (excited before)
            (excited candidate) (v1 - v0)
            (if ok then "accepted" else "rejected")
            (1000. *. (t2 -. t1)))
    done;
    (!acc, !accepted)
  in
  (* Safety net: if the composition of per-module insertions is not
     implementable globally (modules validate against their quotient
     views, which can hide a diamond two signals share), redo the whole
     insertion on the source graph with every candidate labeling
     validated against global implementability.  Module supports are
     dropped — the redone signals owe nothing to the per-module input
     sets. *)
  let final, supports, redo =
    let minimized, accepted = minimize_safely current in
    let judge =
      if certificate then Sg_expand.implementable_csc
      else Sg_expand.implementable
    in
    if accepted || judge minimized then
      (minimized, supports, None)
    else begin
      Log.debug (fun m ->
          m "modular composition is not implementable; global re-insertion");
      let pairs = Csc.conflict_pairs complete in
      let ((g, _, _) as pass) =
        global_pass ~config ~deadline ~fresh_name
          ~accept:Sg_expand.implementable
          ~what:"no semi-modular state-signal insertion within the SAT budget"
          ~resolve:pairs complete
      in
      ( fst (minimize_safely g),
        [],
        Some (global_report "<global redo>" ~conflicts:(List.length pairs) pass)
      )
    end
  in
  let expanded = Sg_expand.expand final in
  Log.debug (fun m -> m "expansion: %d states" (Sg.n_states expanded));
  (* Logic derivation: outputs over their module supports; inserted state
     signals over a greedily reduced support. *)
  let support_of s =
    let name = Sg.signal_name expanded s in
    match List.assoc_opt name supports with
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
  let functions = Derive.synthesize ~support_of expanded in
  let functions =
    if config.hazard_free then
      List.map (Hazard.hazard_free_enlargement expanded) functions
    else functions
  in
  (final, expanded, functions, redo)

(* The one flow behind every entry point (Figure 6): plan, insert,
   clean up, implement. *)
let synthesize_complete ~config ~deadline complete =
  let certificate = Csc.csc_satisfied complete in
  let context = Input_derivation.context complete in
  let analyses = plan context ~certificate complete in
  let fresh_name = fresh_names () in
  let inserted, modules, replayed, stale_analyses =
    insert ~config ~deadline ~fresh_name ~certificate context analyses complete
  in
  let inserted, fallback =
    cleanup ~config ~deadline ~fresh_name ~certificate inserted
  in
  let final, expanded, functions, redo =
    implement ~config ~deadline ~fresh_name ~modules ~certificate complete
      inserted
  in
  {
    complete;
    final;
    expanded;
    functions;
    modules;
    fallback = (match redo with None -> fallback | Some _ -> redo);
    certificate;
    replayed;
    stale_analyses;
  }

(* The same flow from an already-derived complete state graph.  Its
   [config.time_limit] becomes one wall-clock deadline that every
   module, cleanup and global pass shares, so the limit bounds
   the whole run. *)
let synthesize_sg ?(config = default_config) complete =
  synthesize_complete ~config
    ~deadline:(Deadline.of_limit config.time_limit)
    complete

(* The partial-order analysis behind `mpsyn lint --prefix`: a complete
   finite prefix of the STG's unfolding, with the exact U1-U4 verdicts
   computed on it.  The summary is plain data (no timings, no machine
   state), so it is cached by the specification digest alone. *)
let prefix_summary config stg =
  Cache_store.memoize config.cache ~stage:"prefix" ~params:[]
    (fun () -> Cache_key.stg_digest stg)
    (fun () -> Prefix_rules.analyze stg)

let bdd_threshold = 2048

(* The constraint engine: BDD-first for big state spaces, the default
   WalkSAT+DPLL hybrid otherwise.  Only the default [`Sat] is
   overridden; an explicit --backend always wins. *)
let choose_backend (config : config) ~state_bound =
  match (config.backend, state_bound) with
  | `Sat, Some n when n >= bdd_threshold -> `Bdd
  | b, _ -> b

(* Reachability exploration + consistent state assignment under
   [state_cap], keyed by the canonical [.g] digest of the specification.
   [Sg.of_stg] explores with its one sweep (and logs it); every engine
   builds the same graph byte for byte, so the "sg" stage names none.
   Only a successful Σ is cached, and a successful Σ does not depend on
   the cap. *)
let complete_of_stg config stg =
  Cache_store.memoize config.cache ~stage:"sg" ~params:[]
    (fun () -> Cache_key.stg_digest stg)
    (fun () -> Sg.of_stg ~max_states:state_cap stg)

(* The audited partition plan (`mpsyn lint --partition`): every
   output's analysis with real conflict counts (no certificate zeroing
   — the plan describes the partition, not one synthesis run's
   shortcuts), checked by the M rules.  Synthesis never runs this
   audit.  The summary is plain data and depends only on the
   specification, so it is memoized by the STG digest alone. *)
let partition_summary config stg =
  Cache_store.memoize config.cache ~stage:"plan" ~params:[]
    (fun () -> Cache_key.stg_digest stg)
    (fun () ->
      let complete = complete_of_stg config stg in
      (* each derived module, described against the graph it was cut
         from *)
      let cone_of (_, (inp : Input_derivation.t), conflicts) =
        {
          Partition_check.c_output = inp.output;
          c_inputs = inp.input_set;
          c_immediate = inp.immediate;
          c_kept_extras = inp.kept_extras;
          c_module = inp.module_sg;
          c_cover = inp.cover;
          c_conflicts = conflicts;
        }
      in
      analyze_outputs (Input_derivation.context complete) ~certificate:false
        complete
      |> List.map cone_of
      |> Partition_check.summarize ~complete)

(* The whole run is keyed by the specification, so a warm run elides
   even the reachability exploration. *)
let synthesize ?(config = default_config) stg =
  let deadline = Deadline.of_limit config.time_limit in
  Cache_store.memoize config.cache ~stage:"synth" ~params:(fingerprint config)
    (fun () -> Cache_key.stg_digest stg)
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
