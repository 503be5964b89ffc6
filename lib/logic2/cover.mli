(** Sum-of-products covers. *)

type t = { width : int; cubes : Cube.t list }

val make : width:int -> Cube.t list -> t
val empty : width:int -> t

(** [covers_minterm f m] holds when some cube covers [m]. *)
val covers_minterm : t -> int -> bool

(** [n_cubes f] and [n_literals f] (total input literals, the paper's area
    metric: literal count of the unfactored cover). *)
val n_cubes : t -> int

val n_literals : t -> int

(** [covers_all f ms] holds when every minterm of [ms] is covered. *)
val covers_all : t -> int list -> bool

(** [disjoint_from f ms] holds when no minterm of [ms] is covered. *)
val disjoint_from : t -> int list -> bool

(** [eval f m] = [covers_minterm]. *)
val eval : t -> int -> bool

(** [to_pattern f] is the positional-cube-notation listing, one cube per
    line; [to_sop names f] the algebraic sum-of-products. *)
val to_pattern : t -> string

val to_sop : string array -> t -> string
