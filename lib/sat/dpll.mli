(** A CDCL satisfiability solver.

    {!solve} is conflict-driven clause learning in the MiniSat lineage:
    two-watched-literal unit propagation (each assignment touches only
    the clauses watching the falsified literal, not the whole database),
    first-UIP conflict analysis with learned clauses, VSIDS-style
    activity decay seeded with Jeroslow-Wang scores, phase saving, and
    Luby restarts.  It is fully deterministic — no randomization — so a
    formula always yields the same model and statistics.  It
    reproduces the paper's branch-and-bound budget semantics: Table 1's
    "SAT Backtrack Limit" aborts come from [backtrack_limit], which
    counts conflict-driven backjumps. *)

(** Why a search gave up.  {!solve} returns [Backtrack_limit] and
    [Time_limit]; [Signal_limit] is reported by the CSC solvers
    above it ({!Csc_direct}, {!Modular_sat}, {!Sequential_insertion})
    when their bound on new state signals or insertion rounds runs
    out, whatever the solver budget. *)
type abort_reason = Backtrack_limit | Time_limit | Signal_limit

type result =
  | Sat of bool array
      (** [a.(v)] is the value of variable [v]; index 0 is unused. *)
  | Unsat
  | Aborted of abort_reason

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  backtracks : int;  (** conflict-driven backjumps *)
  restarts : int;
  learned : int;  (** learned clauses *)
}

(** [solve ?backtrack_limit ?deadline f] decides [f] with CDCL.
    @param backtrack_limit abort after this many backjumps (default: none)
    @param deadline abort with [Time_limit] once this wall-clock
           {!Deadline} has passed (default {!Deadline.none}).  It is
           checked before the first decision, then periodically. *)
val solve :
  ?backtrack_limit:int -> ?deadline:Deadline.t -> Cnf.t -> result * stats

(** [satisfiable f] is a convenience wrapper around {!solve} returning
    [Some model] / [None]; aborts raise [Failure]. *)
val satisfiable : Cnf.t -> bool array option

(** ["backtrack limit"], ["time limit"] or ["state-signal limit"]. *)
val string_of_abort_reason : abort_reason -> string

val pp_result : Format.formatter -> result -> unit
