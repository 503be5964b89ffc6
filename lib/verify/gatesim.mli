(** Event-driven gate-level simulation of a {!Netlist.t}.

    The simulator models the paper's implementation target faithfully:
    each non-input signal is realised as one {e complex gate} — the
    two-level AND/OR/INV network computing its next-state function, with
    the output wired back.  Delays are adversarial and unbounded: a gate
    whose computed value differs from the value on its output wire is
    {e excited}, and the scheduler (a test, the conformance checker, or a
    seeded RNG) decides which excited gate fires next.

    Two delay granularities are exposed:

    - {e complex-gate}: the internal AND/OR/INV wires settle instantly
      (they are acyclic, so the settling order cannot matter), and only
      the boundary wires of the implemented signals switch as discrete
      events ({!fire_output}).  This is the delay
      model under which the synthesis flow guarantees speed independence
      and the one the conformance oracle explores exhaustively.
    - {e per-gate}: {!set_input} and {!fire_output} fire the internal
      gates one at a time in scheduler order, so tests can observe
      transient internal glitches and check confluence of the settled
      state. *)

type t

(** [of_netlist nl] compiles [nl] into simulation tables.
    @raise Invalid_argument if a gate reads a wire no gate or port
    drives, or if [nl] has more than 62 boundary wires. *)
val of_netlist : Netlist.t -> t

val netlist : t -> Netlist.t

(** {1 State} *)

(** [load sim assignment] presents values for {e every} primary input and
    implemented output, then settles the internal wires.
    @raise Invalid_argument if a boundary wire is missing. *)
val load : t -> (string * bool) list -> unit

(** [value sim w] is the current value of any wire (boundary or
    internal). *)
val value : t -> string -> bool

(** [boundary sim] reads back the boundary valuation, inputs first. *)
val boundary : t -> (string * bool) list

(** {1 Events} *)

(** [set_input ?rand sim name v] drives a primary-input change and lets
    the internal network settle, firing excited internal gates one at a
    time (uniformly at random under [rand], lowest-index first without).
    Returns the number of internal gate firings. *)
val set_input : ?rand:Random.State.t -> t -> string -> bool -> int

(** [fire_output ?rand sim name] commits the excited new value of
    implemented signal [name] and settles the fanout.  Returns the
    number of internal gate firings.
    @raise Invalid_argument if [name] is not currently excited. *)
val fire_output : ?rand:Random.State.t -> t -> string -> int

(** {1 Mask interface}

    The exhaustive conformance exploration packs a boundary valuation
    into an [int] bitmask; bit [mask_index sim w] holds wire [w]'s
    value, inputs first, outputs after, following the netlist order. *)

val mask_width : t -> int
val mask_index : t -> string -> int
val wire_of_bit : t -> int -> string

(** [mask_of sim assignment] packs a full boundary assignment. *)
val mask_of : t -> (string * bool) list -> int

(** [eval_mask sim mask] computes the next boundary valuation: input
    bits are returned unchanged, output bits are replaced by the value
    of their complex gate under [mask].  Excited signals are exactly the
    bits of [eval_mask sim mask lxor mask].  Does not disturb the
    event-driven state. *)
val eval_mask : t -> int -> int
