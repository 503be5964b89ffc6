(** The direct (non-decomposed) CSC satisfaction method.

    This is the Vanbekbergen et al. [22] baseline of Table 1: encode the
    complete state graph's CSC problem as a single SAT formula, starting
    from the lower bound on state signals and adding one signal whenever
    the formula is unsatisfiable.  Large graphs produce very large
    formulas, which is exactly the weakness the paper's modular
    partitioning removes; the [backtrack_limit] reproduces the "SAT
    Backtrack Limit" aborts. *)

type formula_size = Csc_search.formula_size = { vars : int; clauses : int }

type outcome =
  | Solved of Sg.t  (** graph with the new state signals attached *)
  | Gave_up of Dpll.abort_reason

type report = {
  outcome : outcome;
  n_new : int;  (** state signals in the solution (0 if aborted) *)
  formulas : formula_size list;  (** one entry per SAT attempt *)
}

(** [solve ?backtrack_limit ?time_limit ?accept sg] resolves all CSC
    conflicts of [sg].  New signals are named ["csc" ^ string_of_int k];
    the solver gives up (with [Signal_limit]) beyond the lower bound
    plus 6 additional signals.
    @param time_limit wall-clock seconds for the whole call, shared by
           every SAT attempt; running out gives up with [Time_limit]
           (default: none)
    @param accept extra validation of a solved labeling (default accepts
           everything).  The search is {!Csc_search.search} over the
           strict encodings from the lower bound up, with plain
           {!Dpll.solve} as its model source: a rejected labeling is
           blocked and the next model tried, escalating to one more
           signal after 32 rejections.
           Used by the conformance oracle to discard labelings whose
           expansion loses semi-modularity. *)
val solve :
  ?backtrack_limit:int ->
  ?time_limit:float ->
  ?accept:(Sg.t -> bool) ->
  Sg.t ->
  report
