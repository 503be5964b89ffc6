(** The direct method end to end — the Vanbekbergen-style baseline of
    Table 1 as one driver, so the bench, the CLI and the examples report
    the same row. *)

(** Table 1's budget for the whole-graph baselines (this method and
    {!Sequential_insertion}): wall-clock seconds for a run, and SAT
    backtracks. *)
val time_budget : float

val backtrack_budget : int

(** [resolve_time_limit l] is [l], or {!time_budget} when [l] is [None]:
    the limit [mpsyn synth --method direct] and [--method sequential]
    run under. *)
val resolve_time_limit : float option -> float

(** [synthesize ?backtrack_limit ?time_limit sg] resolves CSC on the
    whole graph with {!Csc_direct.solve}, then implements the labeling:
    region minimization ({!Region_minimize.minimize}) is kept only when
    its expansion keeps CSC, the kept labeling is expanded, and the
    logic is derived from the expansion.  Returns the expanded graph,
    the functions and the solver report, for area comparison against
    {!Mpart}.  The report rides on both sides, so a caller can list the
    formula of every SAT attempt also when the budget ran out.
    @raise Derive.Not_csc when the expansion lacks CSC. *)
val synthesize :
  ?backtrack_limit:int ->
  ?time_limit:float ->
  Sg.t ->
  ( Sg.t * Derive.func list * Csc_direct.report,
    Dpll.abort_reason * Csc_direct.report )
  Either.t
