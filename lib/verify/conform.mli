(** Conformance of a synthesized gate-level netlist against an STG
    specification, by exhaustive closed-system exploration.

    The checker closes the circuit with its most liberal environment —
    the specification state graph itself: the environment may fire any
    input transition the spec allows in the current spec state, at any
    time (unbounded environment delays).  The circuit's implemented
    signals switch under the complex-gate delay model of {!Gatesim}:
    every excited signal may fire at any time (unbounded gate delays).
    The exploration covers {e every} interleaving, so a PASS is a proof
    over all delay assignments, in the sense of speed independence
    (semi-modularity, {!Persistency}):

    - {b safety}: every transition the circuit produces on a
      specification signal is allowed by the spec in the current spec
      state ({!Illegal_output} otherwise);
    - {b hazard freedom}: an excited non-input signal stays excited
      until it fires — no transition (input, output, or internal) may
      steal its excitation ({!Output_hazard});
    - {b progress}: when the closed circuit is quiescent, the spec must
      not be awaiting an output ({!Missing_output}), and the circuit's
      internal signals must not cycle without producing a visible
      transition ({!Divergence});
    - {b completeness}: every specification edge is exercised somewhere
      in the product — the circuit realises the whole specified
      behaviour, not a refusal of part of it ({!Unrealized_edge}).

    Signals the netlist implements beyond the specification (inserted
    CSC state signals) are treated as hidden: their transitions are
    silent moves of the product.

    {b Choosing the specification.}  The synthesis flow guarantees the
    circuit against the {e expanded} state graph — the source behaviour
    with the inserted state-signal handshakes made explicit.  Checking
    against the expanded graph ([{!check} ~spec:expanded]) is exact:
    every netlist signal is a spec signal and the product must reproduce
    the graph transition for transition.  Checking directly against the
    source graph instead closes the circuit with an environment that may
    outrun pending state-signal transitions, a stronger contract
    (input-proper insertion) that state-graph labeling cannot always
    achieve; the link back to the source specification is therefore
    established at the state-graph level by {!refines}, which hides the
    inserted signals again. *)

type violation =
  | Interface_mismatch of string
      (** spec/netlist signal sets disagree; nothing was explored *)
  | Illegal_output of { signal : string; rising : bool; spec_state : int }
      (** the circuit can produce a transition the spec forbids *)
  | Output_hazard of { disabled : string; by : string; spec_state : int }
      (** an excited non-input signal lost its excitation without firing *)
  | Missing_output of { pending : string list; spec_state : int }
      (** quiescent circuit, but the spec awaits these output events *)
  | Divergence of { spec_state : int }
      (** hidden state signals can cycle without visible progress *)
  | Unrealized_edge of { signal : string; rising : bool; src : int }
      (** a spec transition no exploration path ever exercised *)
  | Refinement_stuck of { impl_state : int; spec_state : int }
      (** ({!refines}) the implementation graph halts while the spec can
          still move *)
  | Capped of int  (** exploration hit the state cap; verdict unknown *)

type stats = {
  product_states : int;
  product_edges : int;
  spec_edges_covered : int;
  spec_edges_total : int;
}

type report = { violations : violation list; stats : stats }

(** [conforms r] holds when no violation was recorded. *)
val conforms : report -> bool

(** [check ?max_states ~spec ~initial nl] explores the product of [nl]
    and [spec] from [initial] (a full boundary valuation of [nl]; it
    must agree with [spec]'s initial code on the spec's signals).
    Exploration stops early once 32 distinct violations are found or
    [max_states] product states are expanded (default 1_000_000,
    reported as {!Capped}). *)
val check :
  ?max_states:int ->
  spec:Sg.t ->
  initial:(string * bool) list ->
  Netlist.t ->
  report

(** [refines ?max_states ~spec impl] checks that the
    state graph [impl] (typically the expanded graph, whose inserted
    state signals became ordinary signals) realises the abstract graph
    [spec] once the signals [spec] does not know are hidden: walking
    every edge of [impl], spec-visible transitions must be allowed by
    [spec] in the tracked spec state ({!Illegal_output} otherwise),
    codes must agree on the shared signals in every reachable product
    pair, [impl] must not halt while [spec] can move
    ({!Refinement_stuck}), and every [spec] edge must be matched
    somewhere ({!Unrealized_edge}).  It stops at the same bounds as
    {!check}. *)
val refines : ?max_states:int -> spec:Sg.t -> Sg.t -> report

val pp_violation : Format.formatter -> violation -> unit
val pp_report : Format.formatter -> report -> unit
