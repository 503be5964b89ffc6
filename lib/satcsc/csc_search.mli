(** The search loop of every CSC solver ({!Modular_sat}, {!Csc_direct},
    sequential insertion).  Each rung of the caller's [ladder] (a
    state-signal count and an encoding mode) is encoded in turn
    ({!Csc_encode.encode}); the caller's [propose] gives a model, which
    is [realize]d as a labeled graph.  A labeling [accept] rejects is
    excluded with a blocking clause over the value bits and [propose]
    is asked again, up to 32 times (a model can satisfy the CNF yet
    realize a labeling whose expansion loses semi-modularity); then, or
    when [propose] refutes the formula, the loop climbs to the next
    rung. *)

type formula_size = { vars : int; clauses : int }

type proposal =
  | Model of bool array
  | Unsat  (** refuted or given up on: climb to the next rung *)
  | Abort of Dpll.abort_reason  (** stop the whole search *)

type outcome =
  | Found of Sg.t * int  (** the accepted graph and its rung's signal count *)
  | Gave_up of Dpll.abort_reason
      (** [propose] aborted, or every rung was refuted or rejected
          ([Signal_limit]) *)

(** [formulas] has one entry per rung encoded, in order. *)
type result = { outcome : outcome; formulas : formula_size list }

(** [dpll ?backtrack_limit ~deadline] proposes what one plain
    {!Dpll.solve} call finds: the direct and sequential model source. *)
val dpll : ?backtrack_limit:int -> deadline:Deadline.t -> Cnf.t -> proposal

(** [search ?resolve ?accept ~ladder ~propose ~realize sg]; [resolve]
    goes to every encoding (default: all conflict pairs), [accept]
    defaults to accepting everything. *)
val search :
  ?resolve:(int * int) list ->
  ?accept:(Sg.t -> bool) ->
  ladder:(int * [ `Strict | `Loose ]) list ->
  propose:(Cnf.t -> proposal) ->
  realize:(Csc_encode.t -> bool array -> Sg.t) ->
  Sg.t ->
  result
