(** McMillan/ERV complete-finite-prefix unfolding of a bounded Petri net.

    The branching process of a net replaces the interleaved reachability
    graph with a partial order: {e conditions} (tokens with a causal
    history) and {e events} (transition occurrences), related by
    causality, conflict, and concurrency.  A complete finite prefix is a
    truncation of the (generally infinite) unfolding that still
    represents every reachable marking: an event is a {e cutoff} when
    the marking reached by its local configuration was already reached
    by an earlier event (its {e companion}), so nothing beyond it can
    reach new markings.

    Possible extensions are enumerated from per-condition concurrency
    lists (co-sets maintained incrementally) and inserted into a
    priority queue ordered by the Esparza–Römer–Vogler total order —
    local-configuration size, then Parikh vector, then the Foata normal
    form, with a final (transition, preset) tiebreak — so the prefix is
    {e canonical}: the same net yields the same prefix at any [?jobs]
    width, and the prefix is digestible for the content-addressed cache.

    On concurrency-heavy nets the prefix is exponentially smaller than
    the state graph, which is what makes the exact prefix-based analyses
    (lint rules U1–U4) cheaper than an explicit [Reach.explore] — the
    engine never calls into {!Reach} at all. *)

type t

(** [build ?jobs ?max_events net] constructs the canonical ERV prefix.
    Possible-extension candidates fan out over the domain pool at width
    [jobs] (default 1); the result is bit-identical for any width.
    Construction stops — with {!complete} [= false] — once the prefix
    holds [max_events] events (default 2048), or immediately when the
    net has a source transition (empty preset: structurally unbounded,
    so no finite prefix is complete). *)
val build : ?jobs:int -> ?max_events:int -> Petri.t -> t

val net : t -> Petri.t

(** [complete t] holds when the prefix is a complete finite prefix:
    every reachable marking of the net is [Mark(C)] of some cutoff-free
    configuration [C] of [t], and every transition enabled there has an
    extension event in [t].  When [false] (event cap hit, or a
    degenerate net), no exact conclusion may be drawn from the prefix
    and the analyses built on it abstain. *)
val complete : t -> bool

val n_events : t -> int
(** All events, cutoffs included. *)

val n_cutoffs : t -> int

val n_noncutoff : t -> int
(** [n_events - n_cutoffs]: the prefix-size metric reported by lint
    rule U4 and benchmarked against the state-graph size (every
    non-cutoff event reaches a distinct previously-unseen marking, so
    this never exceeds the number of reachable markings). *)

val n_conditions : t -> int
val event_transition : t -> int -> int
val is_cutoff : t -> int -> bool

(** {1 Exact queries on the prefix} *)

(** [unsafe_witness t] is [Some (place, events)] when two concurrent
    conditions of the prefix share [place]: firing the configuration
    [events] (transition ids, in a fireable order) from the initial
    marking puts two tokens on [place].  [None] on a {!complete} prefix
    is a proof of 1-safeness (lint rule U1). *)
val unsafe_witness : t -> (int * int list) option

(** [coset_exists t places] holds when some reachable marking covers the
    place {e multiset} [places]: the prefix contains pairwise-concurrent
    conditions matching it.  Exact on a {!complete} prefix.
    [coset_exists t (pre t1 @ pre t2)] is therefore exact
    step-coenabledness of [t1] and [t2] — lint rule U2's
    autoconcurrency test. *)
val coset_exists : t -> int list -> bool

(** [step_coenabled t t1 t2] = [coset_exists t (pre t1 @ pre t2)]. *)
val step_coenabled : t -> int -> int -> bool

(** {1 Exact marking enumeration (rules U3/U4)} *)

(** The reachability graph reconstructed from the prefix by a breadth-
    first sweep over cutoff-free configurations (configurations of an
    occurrence net biject with their cuts, so the sweep memoizes cuts).
    Marking ids are dense, id [0] is the initial marking, and the edge
    set is exactly [Reach.explore]'s — same markings, same transitions —
    without ever exploring the interleaved graph directly. *)
type mgraph = {
  mg_markings : Marking.t array;
  mg_edges : (int * int * int) array;  (** (source, transition, target) *)
  mg_complete : bool;
      (** [false] when the cut cap truncated the sweep; the marking and
          edge sets are then under-approximations and U3/U4 abstain *)
}

(** [marking_graph ?max_cuts t] sweeps the prefix (default cap: 262144
    visited cuts).  Only meaningful for exact analysis when
    [complete t]; the sweep itself never calls {!Reach}. *)
val marking_graph : ?max_cuts:int -> t -> mgraph

(** {1 Certificate} *)

(** [cert_json t] renders the machine-checkable [mpsyn-prefix/1]
    certificate: event/condition/cutoff counts, completeness, and one
    witness per cutoff — its transition, its companion event ([-1] for
    the initial marking) and the firing sequences of both local
    configurations, so a checker can replay them and confirm they reach
    the same marking. *)
val cert_json : t -> Json.t
