(** The four-valued assignment domain for state signals.

    When a state signal [n] is inserted at the state-graph level, every
    state is assigned one of four values (paper §2.1):
    - [V0]: n is stable at 0,
    - [V1]: n is stable at 1,
    - [Up]: n is excited to rise (value 0, transition n+ pending),
    - [Dn]: n is excited to fall (value 1, transition n- pending).

    The consistency relation across a state-graph edge, and the merge rules
    used when ε-connected states collapse into one modular state, are the
    paper's Figure 3. *)

type t = V0 | V1 | Up | Dn

val equal : t -> t -> bool

(** [binary v] is the binary code bit contributed by [v]: [false] for
    [V0]/[Up] (wire still 0), [true] for [V1]/[Dn] (wire still 1). *)
val binary : t -> bool

(** [excited v] holds for [Up] and [Dn]. *)
val excited : t -> bool

(** [edge_ok a b] holds when value [a] in a state and value [b] in its
    direct successor are consistent: the eight legal pairs are the
    diagonal plus (V0,Up), (Up,V1), (V1,Dn), (Dn,V0) — Figure 3 cases
    (a)–(i).  Everything else is Figure 3 case (j)/(k). *)
val edge_ok : t -> t -> bool

(** [merge vs] computes the value of a state formed by merging ε-connected
    states carrying values [vs] (each intra-class ε edge must separately
    satisfy {!edge_ok}).  Returns [None] when the class contains both a
    rising and a falling excitation, or both stable values without an
    excitation — such a signal cannot be represented in the merged state. *)
val merge : t list -> t option

(** The set of values occurring in a merge class.  {!merge} depends on
    its argument only through this set, so a class can be merged
    without listing its members. *)
type presence

(** [absent] is the empty set. *)
val absent : presence

(** [present p v] adds [v] to [p]. *)
val present : presence -> t -> presence

(** [union p q] is the set of values in [p] or [q]: the presence of two
    classes merged into one. *)
val union : presence -> presence -> presence

(** [merge_presence p] is [merge vs] for any [vs] whose values form
    exactly the set [p]; [None] on the empty set. *)
val merge_presence : presence -> t option

(** [of_bits ~a ~b] decodes the paper's 2-bit encoding (footnote 2):
    00→V0, 01→V1, 10→Up, 11→Dn; [to_bits] is its inverse. *)
val of_bits : a:bool -> b:bool -> t

val to_bits : t -> bool * bool
val to_string : t -> string
