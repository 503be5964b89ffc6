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

(** A memoization hook around cover minimization.  [memo ~width ~onset
    ~offset compute] must return [compute ()] or a value previously
    returned by [compute] under the {e same} three arguments
    — the minimized cover depends on nothing else, which is what makes
    it safe for the content-addressed synthesis cache to persist.  The
    default hook always computes. *)
type cover_memo =
  width:int ->
  onset:int list ->
  offset:int list ->
  (unit -> Cover.t) ->
  Cover.t

(** [synthesize_one sg ~signal ~support] derives and minimizes
    ({!Espresso}) the function of [signal] over the given support (signal
    ids).  If the support is insufficient it is grown minimally
    ({!Support.grow}); the actual support used is in the result.
    @param memo_cover see {!cover_memo}.
    Raises [Invalid_argument] when the graph still carries extras.
    @raise Not_csc when even the full signal set cannot separate the
    on-set from the off-set. *)
val synthesize_one :
  ?memo_cover:cover_memo ->
  Sg.t ->
  signal:int ->
  support:int list ->
  func

(** [synthesize ?support_of sg] derives every non-input signal's
    function.  [support_of s] may propose a support for signal [s];
    [None] means "greedily reduce from the full signal set". *)
val synthesize :
  ?memo_cover:cover_memo ->
  ?support_of:(int -> int list option) ->
  Sg.t ->
  func list

(** [total_literals fs] sums cover literals — Table 1's area column. *)
val total_literals : func list -> int

(** [check fs sg] verifies every function against every reachable state
    of [sg]; returns the list of (function name, state) mismatches
    (empty = implementation correct). *)
val check : func list -> Sg.t -> (string * int) list

val pp_func : Format.formatter -> func -> unit
