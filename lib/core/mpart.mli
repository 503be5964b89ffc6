(** Modular partitioning synthesis of asynchronous circuits — the paper's
    contribution, algorithm [modular_synthesis] (Figure 6).

    For every output signal of the STG:
    + derive its input signal set and modular state graph
      ({!Input_derivation}, Figure 2);
    + resolve the modular graph's CSC conflicts with a small SAT formula,
      adding state signals as needed (Figure 4, via {!Csc_direct} on the
      modular graph);
    + propagate the new assignments to the complete state graph
      ({!Propagation}, Figure 5).

    When all modules are done, any conflicts the modules could not see
    (pairs merged inside every module) are resolved by a final bounded
    direct pass — the paper relies on this never happening in practice
    ("in the worst case, all the CSC conflicts … will be removed after
    all the modular state graphs … are derived"); the fallback keeps the
    implementation total.  The complete graph is then expanded
    ({!Sg_expand}) and each output's logic is minimized over its module's
    support ({!Derive}).

    Every entry point runs this one flow once: the partition plan
    (every output's module analyzed and audited, in M4 order), then the
    insertion (module SAT, propagation, fallback pass), then the
    implementation (region minimization, expansion repair, covers). *)

type config = {
  backtrack_limit : int option;  (** per SAT call *)
  time_limit : float option;
      (** wall-clock seconds for the whole run: each {!synthesize} or
          {!synthesize_sg} call makes one {!Deadline} that the module
          solves, the cleanup pass and the implementation's repair and
          global passes share, so the limit means the same at any
          [jobs] *)
  max_states : int;  (** reachability cap *)
  hazard_free : bool;  (** enlarge covers to kill static-1 hazards *)
  backend : [ `Sat | `Dpll | `Bdd ];
      (** constraint engine: WalkSAT+DPLL hybrid, DPLL alone, or
          BDD-first (paper [19]).  The default [`Sat] flips to [`Bdd]
          on large state spaces ({!choose_backend}); an explicit choice
          is never overridden *)
  dedup_cones : bool;
      (** solve each distinct module cone once: when two outputs'
          modules have the same canonical cone digest (rule M3 — the
          same graph up to state renaming), the second replays the
          first's CSC solution through the renumberings instead of
          calling the solver again (default true) *)
  order_by_risk : bool;
      (** consume the solve loop in ascending M4 risk order: modules
          whose cones overlap other conflicted cones go last, so their
          insertions invalidate fewer pending analyses (default true) *)
  jobs : int;
      (** domain-pool width for the solver-independent stages: the
          per-output derivation/projection/conflict-detection batches
          fan out over {!Pool} with this width.  [1] forces the
          historical fully sequential path; any width produces
          bit-identical results (the mutating solve/propagate stage
          stays ordered and stale analyses are recomputed).
          Default: {!Pool.default_jobs} at
          module initialization ([MPSYN_JOBS] or the machine's
          recommended domain count). *)
  cache : Cache_store.t option;
      (** content-addressed memoization of the solver-independent
          stages (default [None]: no caching).  Keys combine the
          canonical [.g] digest of the specification (or the content
          digest of the derived graph) with a fingerprint of every
          jobs-invariant option above, so a cached entry is only ever
          replayed for a run that would have recomputed it bit for bit.
          Cached stages: the complete prefix, the complete state graph
          (reachability + consistent assignment), per-output modular
          CSC solutions (keyed by the module graph's digest — edits
          outside an output's input-set cone leave its entry valid, the
          incremental-re-synthesis property of partitioned
          representations), minimized covers, and whole synthesis
          results: {!synthesize} by the specification,
          {!synthesize_sg} by the graph.  Failures are never cached. *)
}

val default_config : config

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
  expanded : Sg.t;  (** state-signal transitions inserted *)
  functions : Derive.func list;
  modules : module_report list;
  fallback : module_report option;
      (** the final direct pass, when modules left conflicts behind *)
  certificate : bool;
      (** the complete graph Σ already satisfied CSC
          ({!Csc.csc_satisfied}), so no module invoked a solver *)
  plan : Partition_check.summary;
      (** the audited partition plan the run consumed (conflict counts
          are zero under the certificate) *)
  replayed : string list;
      (** outputs whose module was a duplicate cone and reused an
          earlier CSC solution instead of solving (dedup_cones) *)
  stale_analyses : int;
      (** module analyses recomputed because an earlier solve mutated
          the complete graph — the M4 ordering tries to keep this low *)
}

exception Synthesis_failed of string
(** Raised when a SAT budget is exhausted before CSC is satisfied.  A
    module's message names the bound that ran out: the backtrack limit,
    the time limit, or the state-signal limit. *)

(** [synthesize ?config stg] runs the full modular flow.  Engines are
    chosen from the complete state graph Σ: the reachability engine by
    the explicit sweep capped at {!engine_threshold} (a net that
    overflows it is explored symbolically), the constraint backend by
    {!choose_backend} on Σ's state count.
    @raise Synthesis_failed on exhausted budgets
    @raise Sg.Inconsistent if the STG has no consistent assignment *)
val synthesize : ?config:config -> Stg.t -> result

(** [synthesize_sg ?config sg] is the same flow starting from an
    already-derived complete state graph (used by baselines and tests).
    When [sg] already satisfies CSC ({!Csc.csc_satisfied}), modules skip
    conflict analysis and SAT and [result.certificate] holds. *)
val synthesize_sg : ?config:config -> Sg.t -> result

(** [prefix_summary ?jobs config stg] is the memoized partial-order
    analysis of [stg] ({!Prefix_rules.analyze} with its default event
    cap) behind [mpsyn lint --prefix]: the entry is keyed by the
    canonical [.g] digest only — the summary is deterministic for any
    pool width and carries no timings.  Synthesis does not consult it. *)
val prefix_summary : ?jobs:int -> config -> Stg.t -> Prefix_rules.summary

(** The state count (2048) at which both engines flip to their BDD
    variants: reachability explores explicitly up to this many markings
    and symbolically beyond, and {!choose_backend} picks [`Bdd] from
    this many states of Σ on. *)
val engine_threshold : int

(** [partition_summary ?jobs config stg] is the memoized partition plan
    of [stg] ({!Partition_check.summarize} over every output's derived
    cone, with real modular conflict counts — no certificate zeroing):
    the audit behind [mpsyn lint --partition].  The summary is plain
    deterministic data keyed by the canonical [.g] digest and the state
    cap only, so any pool width and any lint/synth caller share one
    cached plan per specification ([jobs] defaults to [config.jobs]). *)
val partition_summary : ?jobs:int -> config -> Stg.t -> Partition_check.summary

(** [choose_backend config ~state_bound] picks the constraint engine:
    the default [`Sat] backend becomes [`Bdd] when the state bound
    reaches {!engine_threshold}; explicit choices pass through.
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
