(** Domain pool for the coarse, independent fan-outs of the tool:
    files of a lint run, fuzz cases, benchmark rows.  Synthesis itself
    runs on one domain.

    Each {!map} call is one flat batch: the caller spawns
    [min jobs n - 1] worker domains, it and they claim task indices
    from one atomic counter, and the caller joins every worker before
    it returns, so no domain outlives its batch (an idle domain would
    still take part in every stop-the-world minor collection that
    follows).  A {!map} called from inside a task runs inline, left to
    right, on that task's domain, so nesting never multiplies domains.

    Determinism contract: results are returned in input order; a batch
    whose tasks raise surfaces the exception of the {e lowest-indexed}
    failing task.  Pending tasks above a recorded failure are cancelled
    (never run); lower-indexed ones still run, so the lowest failing
    index is always reached.  With [jobs = 1] no domain is involved at
    all — the map runs in the caller, left to right, bit-identical to a
    plain [List.map].

    Tasks must not share unsynchronized mutable state; everything this
    repository fans out operates on immutable inputs and per-call
    solver instances (the process-wide {!Counter} counters are
    atomic). *)

val jobs_of_string : string -> int option
(** [jobs_of_string s] is the positive integer that [s] spells, blanks
    around it allowed, else [None]: the one parser of [MPSYN_JOBS]. *)

val default_jobs : unit -> int
(** The pool width used when [?jobs] is omitted: the last
    {!set_default_jobs} value if any, else a positive integer parsed
    from [MPSYN_JOBS] by {!jobs_of_string}, else
    [Domain.recommended_domain_count ()].
    A malformed [MPSYN_JOBS] is ignored here; the CLI validates it and
    exits with the usage code instead. *)

val set_default_jobs : int -> unit
(** Pin the default width (the [--jobs] flag).  Raises
    [Invalid_argument] when the argument is [< 1]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ?jobs f arr] applies [f] to every element, running up to
    [jobs] applications concurrently (default {!default_jobs}).
    Results keep input order.  If any application raises, the whole
    call raises the exception of the lowest-indexed failure after all
    started tasks have settled and pending tasks with a higher index
    than a recorded failure were cancelled. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}; same ordering and failure contract. *)

val live_workers : unit -> int
(** The number of worker domains currently spawned: positive only while
    a parallel batch is in flight, [0] once every batch has returned. *)
