(** Structural place invariants of Petri nets.

    A P-invariant is a rational vector [y ≥ 0] with [yᵀ·C = 0] for the
    incidence matrix [C]: the weighted token count [yᵀ·M] is constant
    under firing.  Invariants give structural proofs of boundedness —
    a net covered by positive invariants is bounded regardless of the
    initial marking, which is why well-formed STG fragments (handshake
    rings, fork/join pairs) are 1-safe by construction.

    The computation is the classical Farkas / Fourier–Motzkin style
    elimination over exact rationals (arbitrary growth is capped). *)

type invariant = {
  weights : int array;  (** one non-negative weight per place *)
  token_sum : int;  (** the conserved quantity under the initial marking *)
}

type t_invariant = {
  counts : int array;  (** one non-negative firing count per transition *)
}
(** A T-invariant is a rational vector [x ≥ 0] with [C·x = 0]: firing
    every transition [t] exactly [x.(t)] times (in some realizable order)
    reproduces the marking it started from.  Every cycle of the
    reachability graph induces one, which is what makes T-invariants the
    structural proxy for cyclic behaviour: a property that fails on some
    generating T-invariant fails on a candidate cyclic execution. *)

exception Too_many of int
(** Raised when the elimination's intermediate rows exceed its growth
    cap of 4096; carries the cap. *)

(** [incidence net] is the place × transition incidence matrix
    [C.(p).(t) = post − pre]. *)
val incidence : Petri.t -> int array array

(** [p_invariants net] computes a generating set of minimal
    non-negative P-invariants (integer, gcd-reduced).
    @raise Too_many past the growth cap. *)
val p_invariants : Petri.t -> invariant list

(** [t_invariants net] computes a generating set of minimal
    non-negative T-invariants by running the same elimination on the
    transposed incidence matrix.
    @raise Too_many past the growth cap. *)
val t_invariants : Petri.t -> t_invariant list

(** [covered net invs] holds when every place has positive weight in some
    invariant — a structural boundedness certificate. *)
val covered : Petri.t -> invariant list -> bool

(** [check net inv marking] re-evaluates the conserved sum under another
    marking (equality with [inv.token_sum] is the invariant property). *)
val check : Petri.t -> invariant -> Marking.t -> bool

val pp : Petri.t -> Format.formatter -> invariant -> unit
