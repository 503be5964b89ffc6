(** Signals and signal transition events.

    An asynchronous interface circuit is specified over a set of signal
    wires.  Input signals are driven by the environment; output and
    internal (non-input) signals are driven by the circuit and must be
    given a logic implementation.  State signals are non-input signals
    inserted by synthesis to satisfy complete state coding. *)

type kind =
  | Input  (** driven by the environment *)
  | Output  (** driven by the circuit, visible outside *)
  | Internal  (** driven by the circuit, not visible outside *)

(** Direction of a transition on a signal wire: [s+] rising, [s-] falling,
    [s~] toggling (rising or falling depending on the current value). *)
type dir = Rise | Fall | Toggle

(** An event [s+] / [s-] / [s~] on signal id [signal]. *)
type event = { signal : int; dir : dir }

(** [non_input k] holds for output and internal signals. *)
val non_input : kind -> bool

val equal_kind : kind -> kind -> bool

(** [dir_suffix d] is ["+"], ["-"] or ["~"]. *)
val dir_suffix : dir -> string

(** [event_to_string names e] prints [e] as e.g. ["req+"], resolving
    the signal id through [names]. *)
val event_to_string : string array -> event -> string
