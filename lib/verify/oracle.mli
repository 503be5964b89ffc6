(** End-to-end conformance oracle: STG → synthesis → netlist → proof.

    This is the tier-1 correctness gate for the whole flow.  It closes
    the loop the paper leaves implicit: after modular (or direct)
    synthesis, the generated gate-level netlist is simulated with
    adversarial delays against the {e expanded} state graph — the
    behaviour with inserted state-signal handshakes explicit, which is
    the contract the flow actually synthesizes to ({!Conform.check});
    the expanded graph is then tied back to the {e source}
    specification by hiding the inserted signals again
    ({!Conform.refines}); the expanded graph is checked for
    semi-modularity ({!Persistency}); and the derived covers are
    re-checked state by state.  A [passed] report certifies the
    implementation, not just the state-graph algebra.

    The differential harness runs every synthesis backend over the same
    specification and cross-checks that (a) all backends agree on
    whether synthesis succeeds and (b) every produced circuit conforms —
    the fuzzing oracle of [test/test_conformance.ml] and
    [mpsyn verify --fuzz]. *)

type impl = {
  spec : Sg.t;  (** the source specification's state graph *)
  expanded : Sg.t;  (** implementation state graph (state signals real) *)
  functions : Derive.func list;
  netlist : Netlist.t;
  initial : (string * bool) list;  (** boundary valuation at reset *)
}

(** [impl_of_result r] packages a modular synthesis result; the spec is
    the complete state graph the run started from. *)
val impl_of_result : Mpart.result -> impl

(** [impl_of_expanded ~spec expanded] packages a direct-method solution:
    [expanded] must carry no extras (run {!Sg_expand.expand} first). *)
val impl_of_expanded : spec:Sg.t -> Sg.t -> impl

type report = {
  hazard : Hazard_check.result;
      (** static H1–H5 verdict over the same netlist/expanded pair — the
          third differential voice next to simulation and refinement *)
  conform : Conform.report option;
      (** netlist vs expanded, exact; [None] when the dynamic product
          exploration was skipped because H1–H5 certified *)
  refinement : Conform.report;  (** expanded vs source, extras hidden *)
  semi_modular : bool;  (** {!Persistency.is_semi_modular} on [expanded] *)
  cover_errors : int;  (** {!Derive.check} mismatches on [expanded] *)
  netlist_lint : Diagnostic.report;
      (** structural A7 lints over the generated netlist; any error
          fails the certificate *)
  gates : int;
}

(** [skipped_dynamic r] holds when the product exploration was elided on
    the strength of a static certificate. *)
val skipped_dynamic : report -> bool

(** [static_agrees r] is the abstention-aware cross-check between the
    static H1–H5 verdict and the dynamic results: a certificate must be
    matched by a dynamic pass, a refutation by a dynamic failure, and an
    abstention agrees with anything.  Part of {!passed}. *)
val static_agrees : report -> bool

val passed : report -> bool

(** [certify ?max_states ?skip_when_certified ?cache impl] runs the
    static H1–H5 pass and the dynamic checks.  With
    [skip_when_certified] (default [false]) a static certificate elides
    the exponential {!Conform.check} product exploration — {!Counter.sim}
    proves the skip — while the cheap graph-level checks still run.
    With [cache] the two explorations ({!Conform.check} and
    {!Conform.refines}) are memoized content-addressed: the key covers
    the graphs' content digests, the rendered netlist, the reset
    valuation, and the exploration cap, so a warm verification replays
    the cold verdict byte for byte and leaves {!Counter.sim} frozen. *)
val certify :
  ?max_states:int ->
  ?skip_when_certified:bool ->
  ?cache:Cache_store.t ->
  impl ->
  report

val pp_report : Format.formatter -> report -> unit

(** {1 Differential backends} *)

type backend = Walksat | Dpll | Bdd | Direct

val backend_name : backend -> string
val all_backends : backend list

(** [synthesize_with ?backtrack_limit ?time_limit backend stg] runs one
    backend end to end.  The three modular backends drive {!Mpart} with
    the corresponding solver engine; [Direct] is the whole-graph
    {!Csc_direct} baseline.  [time_limit] is wall-clock seconds for
    this one backend run.  [Error msg] means synthesis gave up (budget
    exhausted), not that the circuit is wrong. *)
val synthesize_with :
  ?backtrack_limit:int ->
  ?time_limit:float ->
  ?cache:Cache_store.t ->
  backend ->
  Stg.t ->
  (impl, string) result
(** Structurally malformed specifications (lint errors from rules
    A1–A5) make every backend abstain with a ["lint [...]"] message
    before any solver runs. *)

type differential = {
  stg_name : string;
  verdicts : (backend * (report, string) result) list;
  agree : bool;
      (** the modular backends (walksat/dpll/bdd) all solved or all
          abstained; the whole-graph {!Direct} baseline may abstain on
          its budget without counting as disagreement, since giving up
          is never a definitive unsatisfiability verdict *)
  ok : bool;
      (** [agree], at least one backend solved, and every produced
          implementation passed its certificate *)
}

(** [differential_one ?backtrack_limit ?time_limit ?max_states ?cache
    stg] cross-checks one specification over {!all_backends}.
    [cache] threads the synthesis cache through every backend run and
    certificate, so seeded fuzz re-runs are warm. *)
val differential_one :
  ?backtrack_limit:int ->
  ?time_limit:float ->
  ?max_states:int ->
  ?cache:Cache_store.t ->
  Stg.t ->
  differential

val pp_differential : Format.formatter -> differential -> unit
