(** Logic-function derivation from an expanded state graph (paper §3.5).

    In a state graph satisfying CSC, the next value of each non-input
    signal is a function of the state code: 1 when the signal is 1 and
    not excited to fall or is excited to rise, 0 otherwise.  The on-set /
    off-set are the codes of reachable states with implied value 1 / 0;
    unreachable codes are don't-care. *)

type func = {
  signal : int;  (** id in the state graph *)
  name : string;
  support : int list;  (** signal ids the cover is expressed over *)
  var_names : string array;  (** names of [support], cover variable order *)
  onset : int list;  (** minterms over [support] *)
  offset : int list;
  cover : Cover.t;
}

exception Not_csc of string
(** Raised when a code implies both values — the graph violates CSC. *)

(** [on_off_sets sg ~signals] is, for each non-input signal of
    [signals] in order, its [(onset, offset)] over the full code: the
    ascending, duplicate-free codes of the states whose implied value is
    1 and 0.  Every set is a filter of one table of the graph's distinct
    codes, built from {!Sg.excitation_masks} with one radix sort of the
    states by code and one pass over them; {!synthesize} and
    {!synthesize_one} build that table once per call. *)
val on_off_sets : Sg.t -> signals:int list -> (int array * int array) list

(** [synthesize_one sg ~signal ~support] derives and minimizes
    ({!Espresso}) the function of [signal] over the given support (signal
    ids).  If the support is insufficient it is grown minimally
    ({!Support.grow}); the actual support used is in the result.
    Raises [Invalid_argument] when the graph still carries extras or
    [signal] is an input.
    @raise Not_csc when even the full signal set cannot separate the
    on-set from the off-set. *)
val synthesize_one : Sg.t -> signal:int -> support:int list -> func

(** [synthesize ?support_of sg] derives every non-input signal's
    function.  [support_of s] may propose a support for signal [s];
    [None] means "greedily reduce from the full signal set".  One code
    table and one {!Support.scratch} serve every signal: a proposed
    support is tested and projected in one pass
    ({!Support.project_sets}), and grown only when it falls short. *)
val synthesize : ?support_of:(int -> int list option) -> Sg.t -> func list

(** [total_literals fs] sums cover literals — Table 1's area column. *)
val total_literals : func list -> int

(** [check fs sg] verifies every function against every reachable state
    of [sg]; returns the list of (function name, state) mismatches
    (empty = implementation correct).  Each cover's cubes are lifted to
    masks over the full code once, so a state's code is evaluated as it
    is, with no projection.  Raises [Invalid_argument] when a function's
    signal is an input of [sg]. *)
val check : func list -> Sg.t -> (string * int) list

val pp_func : Format.formatter -> func -> unit
