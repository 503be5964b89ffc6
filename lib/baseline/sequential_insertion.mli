(** Sequential state-signal insertion — the Lavagno/Moon-style baseline.

    Lavagno et al. [13] solve the state assignment problem at the state
    graph level, inserting state signals one at a time into the complete
    graph without global lookahead.  This surrogate reproduces that
    behaviour: each round picks the currently largest conflicting code
    class, requires the SAT encoding to distinguish one of its conflict
    pairs (everything else may stay put), inserts the resulting signal,
    and repeats until CSC holds.  Each round is one
    {!Csc_search.search} over one to three strict signals with plain
    {!Dpll.solve} as its model source.  Compared to the paper's modular method
    it works on the full graph every round — many large SAT instances —
    and tends to insert more signals, which is the Table-1 comparison
    shape. *)

type outcome = Solved of Sg.t | Gave_up of Dpll.abort_reason

type report = {
  outcome : outcome;
  n_new : int;
  rounds : int;
  formulas : Csc_direct.formula_size list;
}

(** [solve ?backtrack_limit ?time_limit ?max_rounds sg] resolves CSC by
    sequential insertion, naming the signal a round inserts
    ["seq" ^ string_of_int round].
    @param time_limit wall-clock seconds for the whole call, shared by
           every round; running out gives up with [Time_limit]
           (default: none)
    @param max_rounds give up with [Signal_limit] after this many
           inserted signals (default: 4 + the lower bound × 4), as when
           one round needs more than three signals *)
val solve :
  ?backtrack_limit:int ->
  ?time_limit:float ->
  ?max_rounds:int ->
  Sg.t ->
  report

(** [synthesize ?backtrack_limit ?time_limit stg_sg] runs insertion,
    expansion and full-support logic derivation, returning the expanded
    graph and the functions, for area comparison against {!Mpart}.
    {!Direct_method.synthesize} is the direct method's counterpart.
    @raise Derive.Not_csc when the expansion lacks CSC. *)
val synthesize :
  ?backtrack_limit:int ->
  ?time_limit:float ->
  Sg.t ->
  (Sg.t * Derive.func list * report, Dpll.abort_reason) Either.t
