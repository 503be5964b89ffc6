(** CNF formulas.

    Variables are positive integers [1..n]; a literal is a non-zero
    integer whose sign is its polarity (DIMACS convention).  Formulas are
    built incrementally; clause simplification (duplicate literals,
    tautologies, and whole-clause duplicates — detected structurally on
    the canonical sorted form) happens at insertion. *)

type lit = int
type t

val create : unit -> t

(** [fresh_var f] allocates and returns a new variable. *)
val fresh_var : t -> int

(** [fresh_vars f k] allocates [k] consecutive variables and returns the
    first. *)
val fresh_vars : t -> int -> int

(** [add_clause f lits] adds a clause.  Duplicate literals are removed; a
    tautological clause (containing [l] and [-l]) is dropped, as is a
    clause whose canonical form is already in the formula.  Adding the
    empty clause marks the formula trivially unsatisfiable.
    Raises [Invalid_argument] on a literal whose variable was never
    allocated. *)
val add_clause : t -> lit list -> unit

(** [add_exactly_one f lits] adds the pairwise encoding of "exactly one of
    [lits] is true". *)
val add_exactly_one : t -> lit list -> unit

val n_vars : t -> int
val n_clauses : t -> int

(** [has_empty_clause f] holds when an empty clause was added. *)
val has_empty_clause : t -> bool

(** [clauses f] is the clause database as an array of literal arrays, in
    insertion order. *)
val clauses : t -> lit array array

(** [eval f assignment] evaluates the formula under [assignment]
    ([assignment.(v)] is the value of variable [v]; index 0 unused). *)
val eval : t -> bool array -> bool

(** [to_dimacs f] renders the formula in DIMACS cnf format;
    [of_dimacs s] parses it back.  [of_dimacs] raises [Invalid_argument]
    on malformed input. *)
val to_dimacs : t -> string

val of_dimacs : string -> t
