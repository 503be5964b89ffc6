(** Boolean encoding of a 1-safe Petri net for symbolic reachability.

    Place [p] has a level [l], its rank in a depth-first walk over the
    flow relation (place, the transitions consuming from it, their
    fanout places; unvisited places become roots in id order), and owns
    two BDD variables under the interleaved order: current-state
    variable [2l] and next-state variable [2l+1].  The walk keeps each
    concurrent component's places adjacent in the order whatever the
    place ids, so a net parsed from text gets the order of its
    structure, not of its lines.  Interleaving keeps a cluster's frame
    conditions local and makes the image renaming the order-preserving
    {!Bdd.unprime}.  Markings are also carried as native-int bitmasks
    over the net's own place ids (bit [p] = place [p] marked), the form
    the canonical-enumeration replay walks allocation-free. *)

type t = {
  net : Petri.t;
  n_places : int;
  n_transitions : int;
  level : int array;  (** [level.(p)]: place [p]'s rank in the variable order *)
  pre_mask : int array;  (** bit [p] set iff place [p] is a fanin of [t] *)
  post_mask : int array;  (** bit [p] set iff place [p] is a fanout of [t] *)
  support : int list array;  (** pre ∪ post of [t], increasing *)
  init_mask : int;
}

(** [cur_var enc p] / [nxt_var enc p] are the current- and next-state
    BDD variables of place [p] ([2 level.(p)] and [2 level.(p) + 1]). *)
val cur_var : t -> int -> int

val nxt_var : t -> int -> int

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
    marking [mask] (bit [p] = place [p] marked). *)
val marking_bdd : Bdd.manager -> t -> int -> Bdd.node
