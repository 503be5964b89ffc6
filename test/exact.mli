(** Exact two-level minimization (Quine–McCluskey + branch and bound).

    {!Espresso.minimize} is a fast heuristic; this module computes a
    {e minimum-literal} prime cover for small functions: generate all
    primes that intersect the on-set (consensus-free expansion over the
    explicit off-set), then solve the covering problem exactly by branch
    and bound with a lower bound from disjoint rows.

    Exponential in the worst case — intended for functions of the size
    asynchronous controllers produce (a few dozen on-set minterms).  The
    test suite's reference: [prop_exact_beats_heuristic] checks that no
    heuristic cover is smaller than this minimum. *)

exception Too_large of string
(** Raised when the prime count or search space exceeds the safety caps. *)

(** [all_primes ~width ~onset ~offset] enumerates every prime implicant
    (maximal cube disjoint from [offset]) containing at least one on-set
    minterm.
    @raise Too_large beyond [max_primes] (default 4096). *)
val all_primes :
  ?max_primes:int -> width:int -> onset:int list -> offset:int list ->
  unit -> Cube.t list

(** [minimize ~width ~onset ~offset] returns a minimum-literal prime
    cover.  Raises [Invalid_argument] on overlapping sets, {!Too_large}
    when the instance defeats the caps. *)
val minimize :
  ?max_primes:int -> ?max_nodes:int -> width:int -> onset:int list ->
  offset:int list -> unit -> Cover.t
