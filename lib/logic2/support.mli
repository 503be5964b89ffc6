(** Support manipulation for incompletely specified functions.

    A variable can be dropped from a function's support when the on- and
    off-set projections onto the remaining variables stay disjoint.  The
    modular partitioning method wins area partly by implementing each
    output over a small support; this module provides the projection
    machinery and a greedy reducer used as the logic-level analogue. *)

(** [project ~vars m] repacks minterm [m] onto the variables [vars]:
    bit [i] of the result is bit [List.nth vars i] of [m]. *)
val project : vars:int list -> int -> int

(** [first_overlap ~onset ~offset] is the smallest minterm in both
    sets, or [None] when they are disjoint.  Both lists must be sorted
    and duplicate-free; one merge walk, linear in their lengths. *)
val first_overlap : onset:int list -> offset:int list -> int option

(** [sufficient ~vars ~onset ~offset] holds when the projections of the
    two sets onto [vars] are disjoint — i.e. [vars] suffices to implement
    the function. *)
val sufficient : vars:int list -> onset:int list -> offset:int list -> bool

(** [reduce ~width ~onset ~offset] greedily drops variables (highest id
    first) while the remaining support stays {!sufficient}; returns the
    kept variables in increasing order. *)
val reduce : width:int -> onset:int list -> offset:int list -> int list

(** [grow ~width ~vars ~onset ~offset] extends an insufficient support
    [vars] greedily (each step adds the variable resolving the most
    on/off projection collisions) until sufficient.  Returns the grown
    support in increasing order.  Raises [Invalid_argument] if even the
    full support is insufficient (on- and off-sets intersect). *)
val grow :
  width:int -> vars:int list -> onset:int list -> offset:int list -> int list
