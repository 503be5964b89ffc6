(** Input signal set derivation — algorithm [determine_input_set] of the
    paper (Figure 2).

    The input signal set of an output [o] is the minimal set of signals
    needed to implement [o]'s logic.  Starting from the immediate input
    set (signals whose transitions directly precede a transition of [o]),
    every other signal is greedily hidden — its transitions relabelled ε
    and the ε-connected states merged — as long as

    - the number of CSC conflict classes {e relevant to o} (full codes
      carried by states of both implied values of [o]) does not
      increase.  Classes, not the pairs of
      {!Csc.output_conflict_pairs}: merging states multiplies same-code
      pairs without changing which codes are ambiguous, whereas the
      class count only grows when a hide fuses a 0-implying and a
      1-implying code,
    - no merge class mixes both implied values of [o] (which would make
      [o]'s logic ill-defined over the module and hide a conflict this
      module must resolve), and
    - every already-inserted state signal stays representable under the
      Figure-3 merge rules.

    The homogeneity condition guarantees that {e every} conflict of [o]
    in the complete graph survives as a separable conflict in the module,
    so the per-output passes collectively remove all CSC conflicts — the
    convergence the paper reports observing in practice.  Finally,
    inserted state signals whose removal would increase [o]'s conflicts
    are kept in the module.

    Candidates are decided on a shrinking quotient.  The first view is
    the complete graph: one node per state, carrying its code, the
    implied value of [o] there, and each state signal's value.  A node
    of a later view is a class of states, carrying the class's code with
    the hidden bits cleared, the implied values of [o] among its
    members, and each state signal's set of values.  Edges stay the
    complete graph's, read through the cover (complete state → node),
    grouped once by signal.  A candidate hide unions the nodes its edges
    join, and the test reads the union exactly as it would read the
    quotient of the complete graph by every hidden signal:
    - a kept state signal survives when the {!Fourval.merge} rules,
      applied to the union of its value sets in each class, succeed and
      every edge of a kept signal stays {!Fourval.edge_ok};
    - homogeneity reads the union of the implied values per class;
    - the conflict count groups classes by full code, each class
      carrying the one implied value homogeneity leaves it.
    An accepted hide contracts the view in place to its classes.
    Classes are numbered by first member at every step, so the composed
    cover is the one the quotient by every hidden signal has; the module
    is the last view with its kept signals renumbered, each kept edge at
    its first occurrence.  No quotient of the complete graph is built.

    State signals are legal along every edge ({!Sg.add_extra} and
    {!Sg.set_extra_values} refuse any other), so the first view, one
    state per class, needs no merge and no edge check: its conflict
    count and each state-signal drop read full codes ({!Sg.full_code})
    alone. *)

type t = {
  output : int;  (** signal id in the complete graph *)
  input_set : int list;
      (** kept signals (complete-graph ids, excluding [output]) *)
  immediate : int list;  (** the trigger signals of [output] *)
  kept_extras : string list;  (** state signals retained in the module *)
  module_sg : Sg.t;  (** the modular state graph Σ_[o] *)
  cover : int array;  (** complete state → module state (paper's cover) *)
}

(** [triggers sg ~output] is the immediate input set: signals firing on
    an edge that enters a state where [output] is excited.
    @raise Invalid_argument if [output] is an input signal. *)
val triggers : Sg.t -> output:int -> int list

(** What every output's derivation reads of the complete graph Σ,
    built once: the edges grouped by signal (per-signal blocks in edge
    order), every output's excitation ({!Sg.excitation_masks}) and
    trigger set, the state codes, and the scratch arrays and code table
    one derivation works in.  The plan
    derives every output's module from one context, and the insertion's
    re-analyses reuse it: a graph grown from Σ by {!Sg.add_extra} shares
    Σ's states, codes and edges, and only its state signals are read
    afresh.  A context holds scratch, so it serves one derivation at a
    time. *)
type context

(** [context sigma] indexes [sigma]. *)
val context : Sg.t -> context

(** [determine_in ctx sg ~output] runs the greedy derivation on [sg],
    a graph with the states and edges of the one [ctx] was built from
    (that graph itself, or one grown from it by {!Sg.add_extra}).
    @raise Invalid_argument if [sg] does not share those states and
      edges ({!Sg.shares_edges}), or [output] is an input signal. *)
val determine_in : context -> Sg.t -> output:int -> t

(** [determine sg ~output] is [determine_in (context sg) sg ~output],
    for a single derivation. *)
val determine : Sg.t -> output:int -> t
