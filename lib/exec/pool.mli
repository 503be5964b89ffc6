(** Fixed-size domain pool for the solver-independent stages of the flow.

    The paper's partitioning produces many small {e independent} problems
    — per-output module projections, benchmark rows, fuzz cases — and
    this module is the one place that fans them out over
    OCaml 5 domains.  The pool is hand-rolled over [Domain], [Mutex] and
    [Condition]: a single global task queue served by worker domains
    that a batch spawns and that are joined as soon as the outermost
    batch drains (an idle domain would still take part in every
    stop-the-world minor collection of the stages that follow), plus
    {e caller helping} — the domain that submits a
    batch also executes queued tasks while it waits, so nested
    [map]-inside-[map] calls (a lint run synthesizing each file)
    can never deadlock and total parallelism stays bounded by the pool
    size rather than multiplying.

    Determinism contract: results are returned in input order; a batch
    whose tasks raise surfaces the exception of the {e lowest-indexed}
    failing task.  Pending tasks above a recorded failure are cancelled
    (drained without running); lower-indexed ones still run, so the
    lowest failing index is always reached.  With [jobs = 1] no domain
    is involved at all — the map runs in the caller, left to right,
    bit-identical to a plain [List.map] — so [--jobs 1] reproduces the
    historical sequential behaviour exactly.

    Tasks must not share unsynchronized mutable state; everything this
    repository fans out operates on immutable state graphs and
    per-call solver instances (the only process-wide mutable is the
    {!Counter.solver} counter, which is atomic). *)

val default_jobs : unit -> int
(** The pool width used when [?jobs] is omitted: the last
    {!set_default_jobs} value if any, else a positive integer parsed
    from [MPSYN_JOBS], else [Domain.recommended_domain_count ()].
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
    a parallel batch is in flight, [0] once the outermost one has
    returned. *)
