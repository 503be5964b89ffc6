(** Signal transition graphs.

    An STG is a Petri net whose transitions are interpreted as rising and
    falling transitions of circuit signals (Chu 1987).  Dummy transitions
    carry no signal event; they arise from choice/fork plumbing and are
    treated as silent (ε) when the state graph is derived. *)

type label = Event of Signal.event | Dummy

type t

(** [make ~net ~labels ~signal_names ~kinds ~name] wraps a Petri net as an
    STG.  [labels.(t)] gives the interpretation of net transition [t].
    Raises [Invalid_argument] if array sizes disagree with the net or a
    label mentions an unknown signal. *)
val make :
  net:Petri.t ->
  labels:label array ->
  signal_names:string array ->
  kinds:Signal.kind array ->
  name:string ->
  t

val name : t -> string
val net : t -> Petri.t
val n_signals : t -> int
val signal_name : t -> int -> string
val signal_names : t -> string array
val kind : t -> int -> Signal.kind
val label : t -> int -> label

(** [find_signal stg n] is the id of the signal named [n].
    @raise Not_found if absent. *)
val find_signal : t -> string -> int

(** [signals_of_kind stg k] lists signal ids of kind [k] in id order. *)
val signals_of_kind : t -> Signal.kind -> int list

(** [inputs stg] = [signals_of_kind stg Input]; similarly {!non_inputs}
    covers outputs and internal signals. *)
val inputs : t -> int list

val non_inputs : t -> int list

(** [transitions_of stg s] lists the net transitions labelled with an
    event of signal [s]. *)
val transitions_of : t -> int -> int list

(** [trigger_signals stg s] is the set of signals with a direct causal
    arc into some transition of [s]: for each transition [t] of [s], the
    labels of the producers of [t]'s fanin places.  This is the paper's
    "immediate input set" of an output.  Dummy producers are traversed
    transitively. *)
val trigger_signals : t -> int -> int list

(** {1 Validation} *)

type issue =
  | Unused_signal of int  (** signal with no transition *)
  | Dead_transition of int  (** transition that can never fire *)
  | Unsafe  (** some reachable marking is not 1-bounded *)
  | Not_strongly_connected
  | Deadlock of Marking.t

val pp_issue : t -> Format.formatter -> issue -> unit

(** [validate stg] runs the structural and behavioural sanity checks
    used before synthesis and returns all issues found (empty list when
    the STG is live, safe and fully used).  It explores the reachability
    graph under {!Reach.explore}'s default cap.
    @raise Reach.Too_many_states past that cap. *)
val validate : t -> issue list

val pp : Format.formatter -> t -> unit
