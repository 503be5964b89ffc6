(** Speed-independence checking: output persistency / semi-modularity.

    A circuit is speed independent when no enabled non-input transition
    can be disabled by another transition firing first (the paper's
    semi-modularity, §2).  Input events may be disabled by other input
    events — that is environment choice — but an excited output that
    loses its excitation without firing is a potential glitch in any
    delay assignment.

    Run this on the {e expanded} state graph: a synthesis result is only
    implementable if it passes. *)

type violation = {
  state : int;  (** where both events were enabled *)
  fired : int * Sg.edge_dir;  (** the event that fired *)
  disabled : int * Sg.edge_dir;  (** the non-input event that vanished *)
  successor : int;
}

(** [violations sg] lists every semi-modularity violation. *)
val violations : Sg.t -> violation list

(** [is_semi_modular sg] = no violation. *)
val is_semi_modular : Sg.t -> bool

(** [choice_states sg] lists states where two or more {e input} events
    compete — legal non-determinism of the environment, reported for
    information. *)
val choice_states : Sg.t -> int list

val pp_violation : Sg.t -> Format.formatter -> violation -> unit
