(** Constraint satisfaction on a modular state graph — algorithm
    [partition_sat] of the paper (Figure 4).

    The SAT formula derived from the modular graph must resolve the
    conflicts of the module's own output (equal-code pairs with different
    implied value); other equal-code pairs may alternatively receive
    identical values, leaving them to their own modules.  New state
    signals are added one at a time while the formula is unsatisfiable,
    starting from one (a single signal always suffices {e count}-wise,
    since a class splits into just two implied-value sides; consistency
    around cycles occasionally demands more). *)

type outcome =
  | Solved of { module_sg : Sg.t; new_extras : Sg.extra array }
  | Gave_up of Dpll.abort_reason

type report = {
  outcome : outcome;
  formulas : Csc_direct.formula_size list;
  solver_stats : Dpll.stats list;
}

(** [solve ?backtrack_limit ?deadline ?max_new ~output module_sg]
    resolves [output]'s conflicts — and any {!Csc.orphan_conflict_pairs}
    the module can see — in [module_sg].  [output] is a signal id of
    [module_sg].  New extras are named ["__m0"], ["__m1"], …; the caller
    renames them during propagation.

    Solving is hybrid: CDCL ({!Dpll.solve} under a backtrack cap)
    decides each encoding first, and a refuted encoding moves on to the
    next one without any local search.  WalkSAT then only chooses among
    the models of a formula already known to be satisfiable (or not yet
    decided): its model, which keeps state signals quiet, is preferred
    over the CDCL one.  An undecided formula WalkSAT cannot satisfy gets
    one larger capped CDCL run; an inconclusive one escalates to one
    more state signal, which is always sound.
    @param deadline the caller's wall-clock {!Deadline}, passed to
           every DPLL call unchanged; when it passes the solve gives up
           with [Time_limit] (default: none).
    @param max_new maximum state signals to try (default 6); beyond it
           the solve gives up with [Signal_limit].
    @param backend [`Sat] (default) decides with CDCL and picks models
           with WalkSAT; [`Dpll] is the same chain without WalkSAT, so
           every model is the CDCL one (the pure systematic baseline,
           used by the conformance oracle's differential harness);
           [`Bdd] tries the symbolic engine of {!Bdd_solver} first —
           the paper's follow-up [19] — falling back to the SAT stack
           when the BDD blows up.
    @param accept extra validation of a realized labeling (default
           accepts everything).  A model whose labeling is rejected is
           excluded with a blocking clause over the encoding's value
           bits and the solver produces the next model
           (counterexample-guided); after a bounded number of
           rejections the search escalates to the next encoding.  The
           driver uses this to discard labelings whose expansion loses
           semi-modularity. *)
val solve :
  ?backtrack_limit:int ->
  ?deadline:Deadline.t ->
  ?max_new:int ->
  ?backend:[ `Sat | `Dpll | `Bdd ] ->
  ?normalize:bool ->
  ?accept:(Sg.t -> bool) ->
  output:int ->
  Sg.t ->
  report

(** [solve_pairs ?backtrack_limit ?deadline ?max_new ~resolve sg]
    is the underlying engine: distinguish exactly the pairs in [resolve]
    (other equal-code pairs may stay together with identical values).
    Used by the driver's global cleanup pass.

    [normalize] (default true) shrinks each new signal's excitation
    region at the module level before returning; disabling it leaves the
    raw solver regions.  {!Mpart} always normalizes. *)
val solve_pairs :
  ?backtrack_limit:int ->
  ?deadline:Deadline.t ->
  ?max_new:int ->
  ?backend:[ `Sat | `Dpll | `Bdd ] ->
  ?normalize:bool ->
  ?accept:(Sg.t -> bool) ->
  resolve:(int * int) list ->
  Sg.t ->
  report
