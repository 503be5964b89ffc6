(** Symbolic speed-independence checker (rules H1–H5).

    Static gate-level hazard analysis of a synthesized netlist against
    the {e expanded} state graph — the behaviour the flow actually
    synthesizes to, with inserted state-signal handshakes explicit.  Per
    output signal the checker builds the excitation and quiescent
    regions of the expanded graph as BDDs in a {e private} manager
    (partitioned per signal — the monolithic product of netlist and
    environment is never constructed) and, without any simulation,
    decides:

    - {b H1} monotonic cover: the ON cover of each gate covers its rise
      excitation region and every stable-1 state, and never intersects
      the opposing quiescent region or the fall excitation region — the
      gate cannot assert prematurely or de-assert while its output is
      still due;
    - {b H2} output persistency / acknowledgement: an excited gate
      output stays excited until it fires — no transition of its inputs
      may steal the pending transition before a fanout acknowledges it;
    - {b H3} unique entry of excitation regions (informational): every
      connected excitation region is entered through a single state, the
      classical precondition for single-cube monotonic covers;
    - {b H4} feedback structure: every combinational cycle of the
      netlist passes through a designated state-holding element — an
      implemented-output wire, the boundary latch of the paper's
      SOP-with-feedback realisation;
    - {b H5} static semi-modularity of the closed (netlist ∘
      environment) system: the symbolically evaluated gate network
      excites exactly the transitions the expanded graph excites, in
      every reachable state.

    A clean run emits a machine-checkable {!cert}; any refutation
    carries concrete counterexample state vectors that {!replay}
    confirms against the gate-level netlist semantics, so a [Refuted]
    verdict is always a real hazard, never a modelling artefact.  The
    verdict is sound both ways with respect to the dynamic conformance
    oracle (complex-gate delay model): certified implies the oracle
    passes, refuted implies it fails; [Abstained] makes no claim. *)

(** Per-signal partition statistics: explicit region sizes (distinct
    state codes) and the node count of the signal's private BDD
    manager. *)
type region_stat = {
  rs_signal : string;
  rs_er_rise : int;  (** codes in the rise excitation region *)
  rs_er_fall : int;  (** codes in the fall excitation region *)
  rs_bdd_nodes : int;  (** nodes ever built in this signal's manager *)
}

(** The certificate: which rules were established over which state
    space, with the per-signal partition evidence. *)
type cert = {
  c_target : string;
  c_states : int;
  c_signals : int;
  c_rules : string list;  (** established rule ids, ["H1"] … ["H5"] *)
  c_regions : region_stat list;
}

(** A concrete refutation: a reachable boundary valuation where the
    netlist misbehaves.  [cx_fired = Some (signal, rising)] names the
    transition whose firing steals [cx_signal]'s excitation (H2);
    [cx_expected] is the next value the specification implies when the
    defect is functional (H1/H5). *)
type counterexample = {
  cx_rule : string;
  cx_signal : string;
  cx_state : (string * bool) list;  (** full boundary valuation *)
  cx_fired : (string * bool) option;
  cx_expected : bool option;
  cx_detail : string;
}

type verdict =
  | Certified of cert
  | Refuted of counterexample list  (** every element passed {!replay} *)
  | Abstained of string  (** no claim; the reason (budget, CSC breach…) *)

type result = {
  verdict : verdict;
  diags : Diagnostic.t list;
      (** the H-rule findings, ready for a {!Diagnostic.report} *)
  bdd_nodes : int;  (** total nodes across all per-signal managers *)
  elapsed : float;
}

(** [analyze ~expanded ~functions netlist] runs H1–H5.  [expanded] must
    carry no extras (run {!Sg_expand.expand} first); [functions] are the
    derived covers the netlist was generated from.  [node_budget] caps
    the total BDD size before the checker abstains (default 2e6).

    [?coexcited] is the H2 prune predicate (see
    [Prefix_rules.coexcited_pred]): when it returns [false] for a pair
    of signal edges, the pair is provably never excited at a common
    state and the corresponding steal test is skipped — sound because a
    steal requires both excitations at the edge's source state and
    state-signal insertion only restricts source-signal excitation.
    Defaults to checking everything. *)
val analyze :
  ?node_budget:int ->
  ?coexcited:(string * Sg.edge_dir -> string * Sg.edge_dir -> bool) ->
  expanded:Sg.t ->
  functions:Derive.func list ->
  Netlist.t ->
  result

(** [replay nl cx] re-validates a counterexample against the gate-level
    semantics ({!Netlist.eval}): a functional counterexample must make
    some gate compute the wrong next value, a stealing counterexample
    must show the excitation vanish when the fired transition is
    applied.  {!analyze} only reports counterexamples for which this
    holds. *)
val replay : Netlist.t -> counterexample -> bool

val certified : result -> bool
val refuted : result -> bool

(** ["certified"], ["refuted"] or ["abstained"]. *)
val verdict_name : result -> string

(** [to_json r] renders the verdict with its certificate or
    counterexamples as a JSON document (schema [mpsyn-hazard/1]). *)
val to_json : result -> Json.t

val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_result : Format.formatter -> result -> unit
