(** Reference ROBDD engine (the original boxed-node package).

    Kept as the differential-testing oracle for the struct-of-arrays
    engine in {!Bdd} and as the "before" side of the E12 solver
    microbenchmarks: same semantics, boxed nodes, functorial hash
    tables, everything routed through a memoized [ite].  New code
    should use {!Bdd}. *)

type manager
type node

val manager : unit -> manager
val bdd_true : node
val bdd_false : node
val of_bool : bool -> node

(** Raise [Invalid_argument] on a negative variable. *)
val var : manager -> int -> node

val nvar : manager -> int -> node
val ite : manager -> node -> node -> node -> node
val not_ : manager -> node -> node
val and_ : manager -> node -> node -> node
val or_ : manager -> node -> node -> node
val xor : manager -> node -> node -> node
val imp : manager -> node -> node -> node
val conj : manager -> node list -> node
val disj : manager -> node list -> node
val restrict : manager -> node -> var:int -> value:bool -> node
val is_true : node -> bool
val is_false : node -> bool
val equal : node -> node -> bool
val size : node -> int
val n_nodes : manager -> int
val any_sat : node -> (int * bool) list option
val sat_count : n_vars:int -> node -> float
val eval : node -> bool array -> bool
val eval_bits : node -> int -> bool
