(** Bitmask encoding of a 1-safe Petri net for the reachability sweep.

    A marking is a native-int bitmask over the net's own place ids (bit
    [p] set iff place [p] is marked), the form {!Symbolic.probe_edges}
    walks allocation-free: firing is two logical ops, and enabling is
    one subset test. *)

type t = {
  net : Petri.t;
  n_places : int;
  n_transitions : int;
  pre_mask : int array;  (** bit [p] set iff place [p] is a fanin of [t] *)
  post_mask : int array;  (** bit [p] set iff place [p] is a fanout of [t] *)
  init_mask : int;
}

(** Nets with more places than this fall back to the explicit builder
    (one bit per place must fit a native int). *)
val max_places : int

(** [unsupported net] is [Some reason] when the net cannot be encoded —
    too many places, or an initial marking that is not 1-safe — and
    [None] when {!make} will succeed. *)
val unsupported : Petri.t -> string option

(** [make net] builds the encoding.  Raises [Invalid_argument] when
    {!unsupported} is [Some _]. *)
val make : Petri.t -> t
