(** Modular partitioning synthesis of asynchronous circuits — the paper's
    contribution, algorithm [modular_synthesis] (Figure 6).

    For every output signal of the STG:
    + derive its input signal set and modular state graph
      ({!Input_derivation}, Figure 2);
    + resolve the modular graph's CSC conflicts with a small SAT formula,
      adding state signals as needed (Figure 4, via {!Modular_sat} on the
      modular graph);
    + propagate the new assignments to the complete state graph
      ({!Propagation}, Figure 5).

    When all modules are done, any conflicts the modules could not see
    (pairs merged inside every module) are resolved by a final bounded
    direct pass — the paper relies on this never happening in practice
    ("in the worst case, all the CSC conflicts … will be removed after
    all the modular state graphs … are derived"); the fallback keeps the
    implementation total.  The labeling is region-minimized and judged
    once by {!Sg_expand.implementable}; one that fails goes to the
    global redo, a whole-graph insertion on Σ accepting only
    implementable labelings.  The graph that passes is expanded once
    ({!Sg_expand}) and each output's logic is minimized over its
    module's support ({!Derive}).

    Every entry point runs this one flow once: the partition plan
    (every output's module analyzed against Σ, in the M4 order of
    {!Partition_check.solve_order}), then the insertion (one
    sequential loop of module SAT and propagation, then the fallback
    pass), then the implementation (region minimization, one
    implementability decision, expansion, covers). *)

type config = {
  backtrack_limit : int option;  (** per SAT call *)
  time_limit : float option;
      (** wall-clock seconds for the whole run: each {!synthesize} or
          {!synthesize_sg} call makes one {!Deadline} that the module
          solves, the cleanup pass and the implementation's global
          redo share *)
  hazard_free : bool;  (** enlarge covers to kill static-1 hazards *)
  backend : [ `Sat | `Dpll | `Bdd ];
      (** constraint engine: WalkSAT+DPLL hybrid, DPLL alone, or
          BDD-first (paper [19]).  The default [`Sat] flips to [`Bdd]
          on large state spaces ({!choose_backend}); an explicit choice
          is never overridden *)
  jobs : int;
      (** ignored: synthesis runs on one domain (default [1]).  The
          field remains only because the end-to-end benchmark still
          sets it; ROADMAP item 4b removes it *)
  cache : Cache_store.t option;
      (** content-addressed memoization of whole results, one entry
          per specification (default [None]: no caching).  Keys are
          the canonical [.g] digest of the specification, and for
          {!synthesize} a fingerprint of every option above but
          [jobs], so a cached entry is only ever replayed for a run
          that would have recomputed it bit for bit.  Cached stages: whole
          {!synthesize} results, the complete state graph
          (reachability + consistent assignment), {!prefix_summary} and
          {!partition_summary}.  Nothing finer is cached: module
          solutions and covers are recomputed on every miss.  Failures
          are never cached. *)
}

val default_config : config

(** The reachability cap (200,000 markings) under which {!synthesize}
    and {!partition_summary} build Σ. *)
val state_cap : int

type formula_size = Csc_direct.formula_size = { vars : int; clauses : int }

(** Per-output record of what the partitioning did. *)
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
  complete : Sg.t;  (** the initial complete state graph Σ *)
  final : Sg.t;  (** Σ with all inserted state signals (extras) *)
  expanded : Sg.t;  (** [final]'s expansion *)
  functions : Derive.func list;
  modules : module_report list;
  fallback : module_report option;
      (** the final direct pass (["<global>"]), when modules left
          conflicts behind, or the global redo (["<global redo>"]) *)
  certificate : bool;
      (** the complete graph Σ already satisfied CSC
          ({!Csc.csc_satisfied}), so no module invoked a solver *)
  replayed : string list;
      (** outputs whose module was a duplicate cone and reused an
          earlier CSC solution instead of solving: when two outputs'
          modules have the same canonical cone digest (rule M3 — the
          same graph up to state renaming), the second replays the
          first's solution through the renumberings instead of calling
          the solver again *)
  stale_analyses : int;
      (** module analyses recomputed because an earlier solve mutated
          the complete graph: every output consumed after the first
          solve that inserted a state signal.  The M4 order tries to
          keep this low *)
}

exception Synthesis_failed of string
(** Raised when a SAT budget is exhausted before CSC is satisfied.  A
    module's message names the bound that ran out: the backtrack limit,
    the time limit, or the state-signal limit; the cleanup pass and
    the global redo each have one fixed message. *)

(** [synthesize ?config stg] runs the full modular flow.  Σ is built by
    {!Sg.of_stg} under {!state_cap}, which picks the
    reachability engine ({!Sg.reachable}); the constraint backend is
    picked by {!choose_backend} on Σ's state count.
    @raise Synthesis_failed on exhausted budgets
    @raise Sg.Inconsistent if the STG has no consistent assignment *)
val synthesize : ?config:config -> Stg.t -> result

(** [synthesize_sg ?config sg] is the same flow starting from an
    already-derived complete state graph Σ = [sg] (the graph-level entry
    point the tests drive with hand-built graphs).  It consults no
    cache, whatever [config.cache] holds.  When [sg] already satisfies CSC ({!Csc.csc_satisfied}), modules skip
    conflict analysis and SAT and [result.certificate] holds. *)
val synthesize_sg : ?config:config -> Sg.t -> result

(** [prefix_summary config stg] is the memoized partial-order analysis
    of [stg] ({!Prefix_rules.analyze} at one job with its default event
    cap) behind [mpsyn lint --prefix]: the entry is keyed by the
    canonical [.g] digest only — the summary carries no timings.
    Synthesis does not consult it. *)
val prefix_summary : config -> Stg.t -> Prefix_rules.summary

(** [partition_summary config stg] is the memoized audit of the
    partition plan of [stg] ({!Partition_check.summarize} over every
    output's derived cone, with real modular conflict counts — no
    certificate zeroing): the M rules behind [mpsyn lint --partition]
    and its [--plan] document.  Synthesis does not run the audit; it
    takes only the solve order, from the same
    {!Partition_check.solve_order}, so its modules come in the
    summary's [p_order] whenever Σ lacks CSC.  The summary is plain
    deterministic data keyed by the canonical [.g] digest only. *)
val partition_summary : config -> Stg.t -> Partition_check.summary

(** The state count (2048) of Σ from which {!choose_backend} flips the
    default [`Sat] backend to [`Bdd]. *)
val bdd_threshold : int

(** [choose_backend config ~state_bound] picks the constraint engine:
    the default [`Sat] backend becomes [`Bdd] when the state bound
    reaches {!bdd_threshold}; explicit choices pass through.
    Synthesis passes the state count of Σ. *)
val choose_backend :
  config -> state_bound:int option -> [ `Sat | `Dpll | `Bdd ]

(** [synthesize_best] is {!synthesize}.  The alias stays because the
    end-to-end benchmark harness ([bench/e2e]) calls it by this name. *)
val synthesize_best : ?config:config -> Stg.t -> result

(** {1 Result accessors (Table 1 columns)} *)

val initial_states : result -> int
val initial_signals : result -> int
val final_states : result -> int
val final_signals : result -> int

(** [area_literals r] is the two-level area: total literals of all
    non-input covers. *)
val area_literals : result -> int

(** [n_state_signals r] counts inserted state signals. *)
val n_state_signals : result -> int

(** [verify r] re-checks the implementation: CSC satisfied in the
    expanded graph and every cover matching the implied next-state value
    in every reachable state.  Returns an error description, or [None]
    when everything holds. *)
val verify : result -> string option

val pp_report : Format.formatter -> result -> unit
