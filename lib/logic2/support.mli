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

(** {1 Sets of codes}

    The functions below take a function's on- and off-set as int arrays
    of codes, in any order, duplicates allowed.  They decide on codes
    masked to the variables in question and find equal ones by hashing
    into one open-addressing table ({!Sg.Slots}), so no set is sorted or
    re-projected per test. *)

(** Working space for those functions: the table and two code buffers,
    grown to the largest [onset] plus [offset] a call has passed and
    kept for the next.  A caller that runs many of them (one per signal
    of a graph, say) passes one scratch to all, so the space is made
    once. *)
type scratch

val scratch : unit -> scratch

(** [sufficient ~vars ~onset ~offset] holds when the projections of the
    two sets onto [vars] are disjoint — i.e. [vars] suffices to implement
    the function. *)
val sufficient : vars:int list -> onset:int array -> offset:int array -> bool

(** [project_sets ~vars ~onset ~offset] is the sufficiency test and the
    projection in one pass: [Some (on, off)], the two sets projected
    onto [vars] ({!project}), each sorted and duplicate-free, when they
    are disjoint, and [None] when they are not ([vars] is not
    {!sufficient}). *)
val project_sets :
  scratch ->
  vars:int list ->
  onset:int array ->
  offset:int array ->
  (int list * int list) option

(** [reduce ~width ~onset ~offset] greedily drops variables (highest id
    first) while the remaining support stays {!sufficient}; returns the
    kept variables in increasing order.  Each drop is decided by one
    lookup per distinct off-code. *)
val reduce :
  scratch -> width:int -> onset:int array -> offset:int array -> int list

(** [grow ~width ~vars ~onset ~offset] extends an insufficient support
    [vars] greedily (each step adds the variable resolving the most
    on/off projection collisions, counted with multiplicity) until
    sufficient.  Returns the grown support in increasing order.  Raises
    [Invalid_argument] if even the full support is insufficient (on-
    and off-sets intersect). *)
val grow :
  scratch ->
  width:int ->
  vars:int list ->
  onset:int array ->
  offset:int array ->
  int list
