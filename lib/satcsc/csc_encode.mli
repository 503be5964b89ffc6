(** SAT encoding of the CSC constraint-satisfaction problem (paper §2.1).

    For a state graph with [N] states and [n_new] candidate state signals,
    every (state, signal) pair gets a 4-valued variable encoded in two
    booleans (footnote 2 of the paper: 00→0, 01→1, 10→Up, 11→Dn).  The
    formula conjoins:

    - {e consistency / semi-modularity}: along every edge the value pair
      of each new signal must be one of the eight legal pairs of
      {!Fourval.edge_ok} — 8 four-literal clauses per edge per signal;
    - {e CSC}: every conflicting pair of equal-code states must be
      distinguished by some new signal holding stable 0 in one state and
      stable 1 in the other (one auxiliary variable per pair, signal and
      polarity);
    - {e no new conflicts}: equal-code states that are {e not} in conflict
      must either also be distinguished or receive identical values for
      every new signal (otherwise an inserted excitation would create a
      fresh CSC conflict). *)

type t = {
  cnf : Cnf.t;
  n_states : int;
  n_new : int;
  base_vars : int;  (** vars [1..base_vars] are the value bits *)
}

(** [encode ?resolve sg ~n_new] builds the formula for resolving the CSC
    conflicts of [sg] with [n_new] fresh state signals.
    @param resolve the conflict pairs that {e must} be distinguished
           (default: all of them).  Pairs outside the list — like
           non-conflicting equal-code pairs — may alternatively receive
           identical values, leaving them for a later insertion round
           (used by the sequential baseline).
    @param mode how a non-conflict equal-code pair may separate instead
           of staying identical: [`Strict] (default) demands stable 0 vs
           stable 1, which keeps models quiet and survives expansion
           unconditionally; [`Loose] only demands different binary
           values, admitting solutions with fewer state signals at the
           price of wider excitation regions (a post-expansion
           collision fails [Sg_expand.implementable]). *)
val encode :
  ?resolve:(int * int) list ->
  ?mode:[ `Strict | `Loose ] ->
  Sg.t ->
  n_new:int ->
  t

(** [decode enc model] extracts, for each new signal, its per-state
    4-valued assignment from a satisfying model. *)
val decode : t -> bool array -> Fourval.t array array

(** [apply sg enc model ~names] adds the decoded signals to [sg] as
    extras named [names.(k)].
    @raise Sg.Inconsistent if the model violates edge consistency (a
    solver bug — the encoding forbids it). *)
val apply : Sg.t -> t -> bool array -> names:string array -> Sg.t
