(** Unique / complete state coding analysis.

    Two states are in {e USC violation} when they share the same binary
    code (over visible signals and the binary values of inserted state
    signals).  They are in {e CSC conflict} when they additionally enable
    different non-input signals — then no logic function over the code can
    tell them apart (paper §2).  [Max_csc] and the resulting lower bound on
    state signals follow §2.1. *)

(** [code_classes sg] groups states by full code; only classes of two or
    more states are returned, each sorted by state id. *)
val code_classes : Sg.t -> int list list

(** [conflict_pairs sg] lists CSC-conflicting unordered pairs [(m, m')],
    [m < m'], sorted lexicographically. *)
val conflict_pairs : Sg.t -> (int * int) list

(** [output_conflict_pairs sg ~output] restricts the conflicts to the
    pairs that make [output]'s logic ill-defined: equal full code but
    different implied value of [output].  These are the conflicts the
    modular state graph of [output] must resolve (paper §3.2). *)
val output_conflict_pairs : Sg.t -> output:int -> (int * int) list

(** [n_output_conflicts sg ~output] counts them. *)
val n_output_conflicts : Sg.t -> output:int -> int

(** [orphan_conflict_pairs sg] lists the conflict pairs whose excitation
    signatures differ {e only} through inserted state signals (extras):
    equal codes, identical excitation of every visible non-input signal,
    but one state excites a state-signal transition the other does not.
    No output's module is responsible for these, so whichever modular
    pass can separate them must resolve them. *)
val orphan_conflict_pairs : Sg.t -> (int * int) list

(** [n_conflicts sg] = [List.length (conflict_pairs sg)]. *)
val n_conflicts : Sg.t -> int

(** [max_usc sg] is the size of the largest same-code class (1 when all
    codes are unique). *)
val max_usc : Sg.t -> int

(** [lower_bound sg] = ⌈log2 max_usc⌉, the paper's lower bound on the
    number of state signals needed; 0 when no class has ≥ 2 states. *)
val lower_bound : Sg.t -> int

(** [csc_satisfied sg] holds when there is no CSC conflict. *)
val csc_satisfied : Sg.t -> bool

(** [usc_satisfied sg] holds when all full codes are distinct. *)
val usc_satisfied : Sg.t -> bool

(** [pp_summary] prints a one-line conflict summary. *)
val pp_summary : Format.formatter -> Sg.t -> unit
