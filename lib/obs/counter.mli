(** Process-wide event counters.

    Tests and the bench read the delta of a counter around a run to
    {e prove} that a stage ran or was skipped, rather than trusting the
    claim: a static certificate makes synthesis skip constraint solving
    ([solver] stays put), the prefix rules never explore explicitly
    ([reach]), a hazard certificate skips dynamic simulation ([sim]),
    and a warm cache serves lookups ([cache_hit]).

    Counters are atomic, so events issued from pool domains ({!Pool})
    are counted exactly under [--jobs N]. *)

type t

(** One call of a constraint engine: {!Dpll.solve}, {!Walksat.solve} or
    the BDD backend. *)
val solver : t

(** One explicit exploration, {!Reach.explore}. *)
val reach : t

(** One exploration that completed symbolically ({!Symbolic.explore});
    a fallback to the explicit sweep counts under [reach] instead. *)
val symbolic : t

(** One dynamic conformance exploration, {!Conform.check}. *)
val sim : t

(** One served {!Cache_store.get}. *)
val cache_hit : t

(** One failed {!Cache_store.get}: absent, corrupt or truncated entry. *)
val cache_miss : t

val bump : t -> unit

(** [get c] is the count since start (or the last [reset c]). *)
val get : t -> int

(** [reset c] zeroes [c] (single-threaded test use only). *)
val reset : t -> unit
