(** Reduced ordered binary decision diagrams — struct-of-arrays engine.

    Nodes are indices into parallel integer arrays owned by a
    {!manager}: no per-node boxing, no polymorphic hashing.  The unique
    table is open-addressing keyed by an avalanche hash of the
    [(var, low, high)] triple and grows by rehashing; the computed table
    is a fixed-size lossy cache, so a long-lived manager's memory stays
    bounded and correctness never depends on a cache hit.  Each
    connective ({!band}, {!bor}, {!bnot}, {!bxor}) has a
    dedicated recursion instead of detouring through {!ite}.

    Variables are non-negative integers ordered by value (smaller =
    closer to the root).  Nodes from different managers must not be
    mixed (unchecked, like every classic package).  Traversals
    ({!any_sat}, {!eval}, …) take the owning manager explicitly. *)

type manager
type node

(** [manager ()] creates an empty manager.  [cache_bits] sizes the
    computed table at [2^cache_bits] entries (default 12 — creation
    stays cheap for the per-signal managers of the hazard checker; 0
    gives the single-entry table the stress tests use to prove
    correctness is independent of cache hits).  Raises
    [Invalid_argument] outside [0..24]. *)
val manager : ?cache_bits:int -> unit -> manager

val bdd_true : node
val bdd_false : node

(** [of_bool b] is the corresponding constant. *)
val of_bool : bool -> node

(** [var mgr v] is the function "variable [v]"; [nvar mgr v] its
    complement.  Raises [Invalid_argument] on a negative variable. *)
val var : manager -> int -> node

val nvar : manager -> int -> node

(** Dedicated connectives. *)
val band : manager -> node -> node -> node

val bor : manager -> node -> node -> node
val bnot : manager -> node -> node
val bxor : manager -> node -> node -> node

(** Three-operand if-then-else, for callers that genuinely have three
    operands; the binary connectives above are faster. *)
val ite : manager -> node -> node -> node -> node

(** [xor mgr f g] is {!bxor} computed as [ite f (bnot g) g], so the
    complement of [g] is materialized in the manager.  Its one caller,
    the H5 check of [Hazard_check], relies on that allocation: the
    manager's node count is printed in the [H0-certified] text of
    [mpsyn lint --hazard], and {!bxor} would print a different count. *)
val xor : manager -> node -> node -> node
val imp : manager -> node -> node -> node

(** [conj mgr ns] folds {!band} over [ns] ([bdd_true] when empty);
    [disj] dually. *)
val conj : manager -> node list -> node

val disj : manager -> node list -> node

(** [restrict mgr n ~var ~value] is the cofactor of [n]. *)
val restrict : manager -> node -> var:int -> value:bool -> node

(** [is_true n] / [is_false n] test for the constants. *)
val is_true : node -> bool

val is_false : node -> bool

(** [equal a b] is constant-time (hash-consing). *)
val equal : node -> node -> bool

(** [size mgr n] counts the distinct internal nodes of [n]. *)
val size : manager -> node -> int

(** [n_nodes mgr] counts the nodes ever created in the manager. *)
val n_nodes : manager -> int

(** Engine counters: nodes allocated, unique-table and computed-table
    hit rates.  Reading them does not reset them. *)
type stats = {
  nodes : int;  (** nodes allocated (constants excluded) *)
  unique_lookups : int;
  unique_hits : int;
  unique_hit_rate : float;
  cache_lookups : int;  (** computed-table probes = non-terminal op steps *)
  cache_hits : int;
  cache_hit_rate : float;
}

val stats : manager -> stats

(** [any_sat mgr n] returns a partial assignment — [(variable, value)]
    pairs, increasing variable order — describing one satisfying path,
    choosing the [false] branch whenever possible (the "all quiet" model
    that gives state signals compact excitation regions).  [None] when
    [n] is unsatisfiable.  Variables absent from the result are
    don't-care. *)
val any_sat : manager -> node -> (int * bool) list option

(** [sat_count mgr ~n_vars n] counts models over [n_vars] variables
    (float to tolerate > 2^62). *)
val sat_count : manager -> n_vars:int -> node -> float

(** [eval mgr n assignment] evaluates [n] ([assignment.(v)] = value of
    [v]; indices past the array are [false]). *)
val eval : manager -> node -> bool array -> bool

(** [eval_bits mgr n code] evaluates [n] over a bit-packed assignment
    (bit [v] of [code] = value of variable [v]), matching the state
    codes of the state-graph layer. *)
val eval_bits : manager -> node -> int -> bool
