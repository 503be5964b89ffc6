(** Static analysis of the modular partition plan (rule family M).

    The paper's decomposition (Fig. 2) assigns every output signal a
    {e module}: the ε-quotient of the complete state graph onto the
    output's derived input set.  The A/H/U rule families audit the STG,
    the netlist and the unfolding — this module audits the partition
    itself, before any SAT solving happens:

    - {b M1-closure} (error): the derived input set must contain every
      trigger of the output — re-derived here independently of
      {!Input_derivation} — and the module's state classes must not mix
      implied output values.  A violation names the witnessing signal
      chain (the trigger edge entering an excited state).
    - {b M2-degenerate} (warning): a conflicted module whose cone covers
      at least a configurable fraction of all signals degenerates toward
      the direct (non-modular) method; the partition buys nothing there.
    - {b M3-duplicate} (info): two outputs with the same canonical cone
      digest have literally identical modules up to state renaming — the
      solver need only run once ({!Mpart} consumes this as dedup).
    - {b M4-conflict-risk} (info): pairs of conflicted modules sharing
      cone signals may propagate conflicting state-signal values into
      shared merged states (Fig. 5 backtracks); pairs proven
      non-interfering by the lock relation are discounted.
    - {b M5-consistency} (error): hiding + ε-merging must have preserved
      a consistent state assignment — the cover must be a sound quotient
      map (codes project, hidden edges stay intra-class, kept edges have
      module counterparts, kept extras re-merge to the module's values).

    A {!summary} is plain marshal-safe data (cacheable by STG digest);
    thresholds and the lock-relation discount are applied only when
    rendering {!diagnostics}, so one cached summary serves any
    configuration.  {!to_json} renders the standalone machine-readable
    document, schema ["mpsyn-plan/1"]. *)

(** One output's module as produced by input-set derivation, described
    against the {e complete} state graph: signal ids are complete-graph
    ids and [c_cover] maps complete states onto module states. *)
type cone = {
  c_output : int;
  c_inputs : int list;  (** derived input set, sorted, without the output *)
  c_immediate : int list;  (** the trigger subset accepted up front *)
  c_kept_extras : string list;  (** previously inserted signals kept *)
  c_module : Sg.t;
  c_cover : int array;  (** complete state → module state *)
  c_conflicts : int;  (** CSC conflict classes w.r.t. the output *)
}

(** Per-cone statistics, by signal name (plain data). *)
type cone_stats = {
  cs_output : string;
  cs_inputs : string list;
  cs_immediate : string list;
  cs_kept_extras : string list;
  cs_states : int;
  cs_edges : int;
  cs_conflicts : int;
  cs_frac : float;  (** cone signals / all signals *)
  cs_state_frac : float;  (** module states / complete states *)
  cs_digest : string;  (** canonical cone digest, see {!cone_digest} *)
  cs_risk : int;  (** M4 risk: shared cone signals with other conflicted cones *)
}

type dup_group = { dg_digest : string; dg_outputs : string list }
type risk_pair = { rp_a : string; rp_b : string; rp_shared : int }

(** An M1/M5 refutation found while building the summary. *)
type violation = {
  v_rule : string;
  v_output : string;
  v_witness : string;  (** the witnessing chain / state / edge *)
  v_detail : string;
}

type summary = {
  p_target : string;
  p_signals : int;
  p_states : int;
  p_cones : cone_stats list;  (** in output-signal order *)
  p_duplicates : dup_group list;  (** groups of ≥ 2 identical cones *)
  p_risky : risk_pair list;  (** conflicted pairs sharing cone signals *)
  p_order : string list;  (** all outputs in {!solve_order} *)
  p_violations : violation list;
}

(** [canonical_form ~output msg] renumbers the module graph's states
    deterministically from the graph itself (breadth-first from the
    initial state, edges ordered by label and destination content) and
    digests the renumbered structure with signal {e positions} instead of
    names.  Returns the digest and the renumbering (original state →
    canonical index).  Equal digests mean the two modules are literally
    the same graph up to state renaming, with the output at the same
    local position — so a CSC solution for one replays onto the other
    through the permutations.  Never uses polymorphic [Hashtbl.hash]. *)
val canonical_form : output:int -> Sg.t -> string * int array

(** [cone_digest ~output msg] is just the digest half of
    {!canonical_form}. *)
val cone_digest : output:int -> Sg.t -> string

(** [solve_order cones] is the M4 solve order: the outputs of [cones],
    given as [(output, input set, conflict count)] triples, by
    ascending risk, ties broken by output id.  A conflicted cone's risk
    is the number of cone signals (output and inputs) it shares with
    every other conflicted cone; a conflict-free cone's is 0.  Synthesis
    consumes its modules in this order, and {!summarize} reports it as
    [p_order]. *)
val solve_order : (int * int list * int) list -> int list

(** [summarize ~complete cones] builds the plan summary: per-cone stats
    and digests, duplicate groups, the overlap/risk relation, the
    {!solve_order}, and all M1/M5 violations (each with its witness).
    [complete] must be the graph the cones were derived from. *)
val summarize : complete:Sg.t -> cone list -> summary

(** [diagnostics ?degenerate_threshold ?min_signals ?locked ~loc summary]
    renders the summary as M-rule diagnostics for the merged
    ["mpsyn-lint/1"] report.  M1/M5 violations become errors; a
    conflicted cone with [cs_frac ≥ degenerate_threshold] (default 0.9)
    becomes an M2 warning when the graph has at least [min_signals]
    (default 10) signals; duplicate groups become M3 infos; risky pairs
    not discounted by [locked a b] become M4 infos. *)
val diagnostics :
  ?degenerate_threshold:float ->
  ?min_signals:int ->
  ?locked:(string -> string -> bool) ->
  loc:Diagnostic.locator ->
  summary ->
  Diagnostic.t list

val schema : string
(** The version tag of the standalone JSON plan document,
    ["mpsyn-plan/1"]. *)

(** [to_json summary] renders the standalone machine-readable plan
    (schema, target, sizes, cones, duplicates, overlaps, solve order,
    violations). *)
val to_json : summary -> Json.t
