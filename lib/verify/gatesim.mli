(** Gate-level evaluation of a {!Netlist.t}.

    The netlist models the paper's implementation target: each
    non-input signal is realised as one {e complex gate} — the two-level
    AND/OR/INV network computing its next-state function, with the
    output wired back.  Under the {e complex-gate} delay model the
    internal AND/OR/INV wires take their values instantly (they are
    acyclic, so the evaluation order cannot matter) and only the
    boundary wires of the implemented signals switch as discrete events.
    That is the delay model under which the synthesis flow guarantees
    speed independence, and the one the conformance oracle ({!Conform})
    explores exhaustively: it evaluates every gate for a boundary
    valuation at once ({!eval_mask}), and the exploration decides which
    excited output fires next. *)

type t

(** [of_netlist nl] compiles [nl] into evaluation tables.
    @raise Invalid_argument if a gate reads a wire no gate or port
    drives, if an output has no driving gate, or if [nl] has more than
    62 boundary wires. *)
val of_netlist : Netlist.t -> t

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
    bits of [eval_mask sim mask lxor mask]. *)
val eval_mask : t -> int -> int
