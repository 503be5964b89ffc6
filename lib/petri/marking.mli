(** Petri net markings.

    A marking records, for every place of a net, the number of tokens that
    place currently holds.  Markings are immutable: firing a transition
    produces a fresh marking.  The representation is a plain integer array
    indexed by place id, wrapped abstractly so that all mutation goes through
    this interface. *)

type t

(** [of_array counts] builds a marking from per-place token counts.
    Raises [Invalid_argument] if any count is negative. *)
val of_array : int array -> t

(** [to_array m] returns a fresh array of per-place token counts. *)
val to_array : t -> int array

(** [size m] is the number of places the marking covers. *)
val size : t -> int

(** [tokens m p] is the number of tokens on place [p]. *)
val tokens : t -> int -> int

(** [empty n] is the marking of [n] places with no tokens anywhere. *)
val empty : int -> t

(** [set m p k] is [m] with place [p] holding exactly [k] tokens. *)
val set : t -> int -> int -> t

(** [add m p k] is [m] with [k] more tokens on place [p]. [k] may be
    negative; raises [Invalid_argument] if the result would be negative. *)
val add : t -> int -> int -> t

(** [is_safe m] holds when no place carries more than one token. *)
val is_safe : t -> bool

(** [total m] is the total number of tokens in the marking. *)
val total : t -> int

(** [marked_places m] lists the places holding at least one token,
    in increasing place order. *)
val marked_places : t -> int list

val compare : t -> t -> int
val equal : t -> t -> bool

(** [hash m] is an FNV-style fold over the token counts; allocation-free
    and consistent with {!equal}. *)
val hash : t -> int

(** [pack m] is an injective string encoding of the marking —
    [pack a = pack b] iff [equal a b].  1-safe markings pack to one bit
    per place, which is what {!Reach.explore} interns instead of the
    marking itself; non-safe markings use a wider fallback encoding. *)
val pack : t -> string

(** [pp_named names] prints a marking using [names.(p)] for place [p]. *)
val pp_named : string array -> Format.formatter -> t -> unit
