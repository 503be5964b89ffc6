(** A wall-clock deadline: the one clock behind every solver budget.

    Budgets are wall seconds ([Unix.gettimeofday]), not process CPU
    time, so a limit means the same thing at any pool width: domains
    running side by side share one deadline instead of each burning
    through a CPU-time allowance that every domain adds to. *)

type t

(** No deadline; {!expired} never reads the clock. *)
val none : t

(** [of_limit (Some s)] expires [s] wall seconds from now (a limit of
    [0.0] or less is expired at once); [of_limit None] is {!none}. *)
val of_limit : float option -> t

val expired : t -> bool
