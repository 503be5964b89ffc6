(** WalkSAT-style stochastic local search for SAT.

    The authors of the paper are local-search SAT researchers (Gu 1992-94,
    references [2]-[9]); this solver is the library's homage and an
    alternative backend for satisfiable CSC instances: start from a random
    assignment and repeatedly repair a random unsatisfied clause, flipping
    either a random variable in it (noise: probability 1/2) or the
    variable that breaks the fewest currently-satisfied clauses.
    Incomplete: it can only prove satisfiability, never
    unsatisfiability.

    Break counts are maintained incrementally (through a per-clause
    critical-variable index) rather than recomputed per flip; the
    maintained counts equal the recomputation exactly, so a given seed
    produces the same flip trajectory, model and statistics as the
    historical re-scanning implementation. *)

type stats = { flips : int; tries : int }

(** [solve ?seed ?init ?max_flips ?max_tries f] searches for a model,
    making a random-walk flip with probability 0.5.
    @param seed   PRNG seed (default 0; runs are deterministic)
    @param init   starting assignment of the {e first} try: [`Random]
                  (default) or [`False] — all variables false, so the
                  search only raises what the constraints force.  Retries
                  always randomize.
    @param max_flips flips per try (default [100 * vars], at least 10_000)
    @param max_tries restarts (default 10)
    @return [Some model] (indexable by variable, index 0 unused) or
            [None] if no model was found within the budget. *)
val solve :
  ?seed:int ->
  ?init:[ `Random | `False ] ->
  ?max_flips:int ->
  ?max_tries:int ->
  Cnf.t ->
  bool array option * stats
