(** Set/reset decomposition — the C-element implementation style.

    A next-state function [f] realised as a single SOP with feedback is
    the paper's reference implementation, but asynchronous design more
    often splits it into a {e set} network (on when the signal must
    rise), a {e reset} network (on when it must fall) and a state-holding
    element: [f = S + s·R'] — a generalised C-element / SR-latch with the
    signal itself as the keeper.  The two networks are incompletely
    specified wherever the signal is stable, so their covers minimize far
    smaller than the monolithic function.

    Correctness obligations, checked by {!verify}:
    - [S] covers every state where the signal is excited to rise and
      avoids every state where it is 0 and stable;
    - [R] covers every falling-excited state and avoids the stable-1
      states;
    - [S] and [R] never overlap on reachable states. *)

type t = {
  signal : int;
  name : string;
  support : int list;
  var_names : string array;
  set_cover : Cover.t;
  reset_cover : Cover.t;
}

(** [decompose sg ~signal ~support] derives the set/reset
    covers of [signal] over [support] (grown if insufficient, like
    {!Derive.synthesize_one}).  The graph must be expanded (no extras).
    @raise Derive.Not_csc when no support separates the regions. *)
val decompose : Sg.t -> signal:int -> support:int list -> t

(** [decompose_all sg] decomposes every non-input signal over
    a greedily reduced support. *)
val decompose_all : Sg.t -> t list

(** [literals c] counts literals of both networks — the C-element area
    metric, comparable to {!Derive.total_literals} minus the keeper. *)
val literals : t -> int

val total_literals : t list -> int

(** [verify sg cs] checks the three obligations above against every
    reachable state; returns human-readable failures (empty = correct). *)
val verify : Sg.t -> t list -> string list

val pp : Format.formatter -> t -> unit
