(** Process-wide event counters.

    Tests and the bench read the delta of a counter around a run to
    {e prove} that a stage ran or was skipped, rather than trusting the
    claim: a static certificate makes synthesis skip constraint solving
    ([solver] stays put), the prefix rules explore once per complete
    prefix ([reach]), a hazard certificate skips dynamic simulation ([sim]),
    a warm cache serves lookups ([cache_hit]), synthesis
    materializes exactly one expanded graph ([expansion]), makes one
    implementability decision per state signal ([implementability]),
    and the region minimizer examines each excited state a bounded
    number of times ([minimize_visit]).

    Counters are atomic, so events issued from pool domains ({!Pool})
    are counted exactly under [--jobs N]. *)

type t

(** One call of a constraint engine: {!Dpll.solve}, {!Walksat.solve} or
    the BDD backend. *)
val solver : t

(** One reachability exploration: {!Reach.explore}, or the bitmask
    sweep ({!Symbolic.probe_edges}) that {!Symbolic.explore_edges} runs
    on every encodable net, which lists the same edges; a sweep that
    hands an unsafe net to {!Reach.explore} counts once, there.  Every Σ
    that synthesis, the prefix rules and the partition plan build costs
    one. *)
val reach : t

(** One dynamic conformance exploration, {!Conform.check}. *)
val sim : t

(** One materialized expansion, {!Sg_expand.expand} of a graph with
    state signals. *)
val expansion : t

(** One served {!Cache_store.get}. *)
val cache_hit : t

(** One failed {!Cache_store.get}: absent, corrupt or truncated entry. *)
val cache_miss : t

(** One listing of a cache store's directory with a stat of every
    entry: at {!Cache_store.open_dir}, in {!Cache_store.total_bytes},
    and when a {!Cache_store.put} passes the size bound. *)
val cache_scan : t

(** One implementability decision, {!Sg_expand.implementable}. *)
val implementability : t

(** One excited state examined by {!Region_minimize.minimize_extra},
    added once per call. *)
val minimize_visit : t

val bump : t -> unit

(** [add c n] counts [n] events at once. *)
val add : t -> int -> unit

(** [get c] is the count since start (or the last [reset c]). *)
val get : t -> int

(** [reset c] zeroes [c] (single-threaded test use only). *)
val reset : t -> unit
