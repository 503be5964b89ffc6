(** Reachability graphs of Petri nets.

    The reachability graph enumerates every marking reachable from the
    initial marking by transition firing.  For a signal transition graph it
    is the raw material of the state graph: each marking becomes a circuit
    state.  Exploration is breadth-first with an explicit cap so that
    unbounded nets fail loudly instead of diverging. *)

(** The graph keeps its edges in one flat buffer: edge [e]'s source,
    transition and target at [edges.(3e)], [edges.(3e + 1)] and
    [edges.(3e + 2)] — the form {!Sg.of_transition_edges} reads, three
    words per edge.  The sweep expands the nodes in id order, so the
    edges are grouped by source in increasing source order, each node's
    in the order its transitions are enabled. *)
type t = {
  net : Petri.t;
  markings : Marking.t array; (* marking of each node; node 0 is initial *)
  edges : int array; (* [src; transition; dst] per edge *)
}

exception Too_many_states of int
(** Raised by {!explore} when the cap is exceeded; carries the cap. *)

(** [explore ?max_states net] builds the reachability graph.
    @param max_states exploration cap, default [100_000].
    @raise Too_many_states if more markings than the cap are reachable. *)
val explore : ?max_states:int -> Petri.t -> t

val n_states : t -> int
val n_edges : t -> int

(** [deadlocks g] lists the nodes with no enabled transition. *)
val deadlocks : t -> int list

(** [is_safe g] holds when every reachable marking is 1-bounded. *)
val is_safe : t -> bool

(** [strongly_connected g] holds when the graph is one strongly connected
    component (with at least one state).  Live-safe STGs always yield
    strongly connected state spaces. *)
val strongly_connected : t -> bool

(** [fireable_transitions g] is the set (sorted, deduplicated) of
    transitions that label at least one edge.  A net is quasi-live when
    this covers all transitions. *)
val fireable_transitions : t -> int list

(** [quasi_live g] holds when every transition of the net fires on some
    edge of the reachability graph. *)
val quasi_live : t -> bool

(** [sccs g] returns the strongly connected components as arrays of node
    ids, in reverse topological order (Tarjan). *)
val sccs : t -> int array list
