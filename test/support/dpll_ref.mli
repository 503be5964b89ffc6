(** The original counter-based DPLL with chronological backtracking.

    Kept as the differential-testing oracle for {!Dpll.solve} and as the
    "before" side of the E12 CNF microbenchmarks.  Same budget semantics
    as {!Dpll.solve}: [backtrack_limit] counts chronological flips, and
    [restarts] and [learned] in the returned stats are always 0. *)

val solve :
  ?backtrack_limit:int ->
  ?deadline:Deadline.t ->
  Cnf.t ->
  Dpll.result * Dpll.stats
