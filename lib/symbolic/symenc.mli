(** Boolean encoding of a 1-safe Petri net for symbolic reachability.

    Place [p] owns two BDD variables under the interleaved order:
    current-state variable [2p] and next-state variable [2p+1], so a
    cluster's frame conditions stay local and the image renaming is the
    order-preserving {!Bdd.unprime}.  Markings are also carried as
    native-int bitmasks (bit [p] = place [p] marked), the form the
    canonical-enumeration replay walks allocation-free. *)

type t = {
  net : Petri.t;
  n_places : int;
  n_transitions : int;
  pre_mask : int array;  (** bit [p] set iff place [p] is a fanin of [t] *)
  post_mask : int array;  (** bit [p] set iff place [p] is a fanout of [t] *)
  support : int list array;  (** pre ∪ post of [t], increasing *)
  init_mask : int;
}

(** [cur_var p] / [nxt_var p] are the current- and next-state BDD
    variables of place [p] ([2p] and [2p+1]). *)
val cur_var : int -> int

val nxt_var : int -> int

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

(** [marking_bdd mgr enc mask] is the full current-state minterm of the
    marking [mask]. *)
val marking_bdd : Bdd.manager -> t -> int -> Bdd.node
