(** Rules U1–U4: exact static analysis from a complete finite prefix.

    The structural rules A1–A7 never build the reachability graph and
    pay for that with abstention: A2 certifies safeness only when a
    P-invariant cover exists, A5 only over-approximates
    autoconcurrency, A6 certifies CSC only when lock relations happen
    to hold.  The {!Unfold} complete finite prefix is the partial-order
    middle ground — typically far smaller than the state graph on
    concurrency-heavy STGs, yet {e exact}:

    - {b U1} ([U1-safeness]): 1-safeness.  A violating co-set yields a
      concrete firing sequence refutation (error); a complete prefix
      without one is a proof (info).
    - {b U2} ([U2-autoconcurrency]): exact same-signal
      step-coenabledness.  Refutations are errors (A5 only warns —
      approximately); pairs proved exclusive silence A5's warnings via
      {!exact_mutex}.
    - {b U3} ([U3-coding]): USC/CSC conflict detection by replaying the
      state-graph encoding over the prefix-derived marking graph —
      byte-compatible with {!Sg.of_stg} + {!Csc} verdicts, without
      {!Reach.explore}.  A conflict-free verdict is a CSC certificate
      {!Mpart} accepts as a second prescreen besides A6.
    - {b U4} ([U4-statebound]): exact state-graph size (markings and
      ε-classes) reported as a diagnostic and used by
      [Mpart.resolve] to pick the constraint backend and the
      reachability engine statically.

    All verdicts are tri-state: when the prefix or the sweep hit their
    caps the analysis abstains ([None]s) rather than guessing, and the
    [U0-prefix] info diagnostic records the abstention. *)

type summary = {
  s_events : int;  (** prefix events, cutoffs included *)
  s_conditions : int;
  s_cutoffs : int;
  s_complete : bool;  (** the prefix is a complete finite prefix *)
  s_unsafe : (int * int list) option;
      (** 1-safeness refutation: place id and a fireable transition
          sequence from the initial marking doubling it *)
  s_autoconc : (int * int) list;
      (** same-signal transition pairs ([t1 < t2]) that can fire as a
          step — exact refutations of A5's concern.  Only populated on
          a complete prefix. *)
  s_markings : int option;  (** exact reachable-marking count (U4) *)
  s_edges : int option;  (** exact reach-edge count *)
  s_sg_states : int option;
      (** exact ε-quotient state-graph size, = [Sg.n_states (of_stg _)] *)
  s_usc : bool option;  (** unique state codes hold *)
  s_csc : bool option;  (** complete state codes hold (U3) *)
  s_conflicts : int option;
      (** CSC conflict pairs, = [Csc.n_conflicts (Sg.of_stg _)] *)
  s_signals : string list;
      (** the STG's signal names — the universe {!coexcited_pred} can
          prune over; edges of other signals (inserted state signals)
          are never pruned *)
  s_coexcited : ((string * bool) * (string * bool)) list option;
      (** the exact class-level co-excitation relation: canonically
          ordered pairs of signal edges ([(name, is_rise)]) excited
          together at some quotient state.  Feeds the H2 persistency
          prune in {!Hazard_check}. *)
}

(** [analyze ?jobs ?max_events ?max_cuts stg] builds the prefix and
    evaluates every rule.  Deterministic for any [jobs]; the result
    contains no timings or machine state, so it is cache-safe
    ({!Mpart.prefix_summary} memoizes it by STG digest). *)
val analyze : ?jobs:int -> ?max_events:int -> ?max_cuts:int -> Stg.t -> summary

(** [diagnostics ~loc stg summary] renders the verdicts as lint
    diagnostics: U1/U2 refutations are errors, U1 proofs and all
    U3/U4 findings are informational (shipped STGs legitimately carry
    CSC conflicts — that is what synthesis resolves — so U3 must not
    trip [--strict]). *)
val diagnostics :
  loc:Diagnostic.locator -> Stg.t -> summary -> Diagnostic.t list

(** [exact_mutex summary] is the [?exact] oracle for {!Autoconc.check}:
    [Some true] when the pair is truly step-coenabled (U2 reports it as
    an error), [Some false] when the prefix proves it impossible (the
    A5 warning is dropped), [None] when the prefix abstained. *)
val exact_mutex : summary -> int -> int -> bool option

(** [coexcited_pred summary] is the H2 prune predicate for
    {!Hazard_check.analyze}: [pred a b] is [false] only when both
    signal edges are known to the summary and provably never excited at
    a common state — a sound skip because state-signal insertion only
    restricts behaviour.  Unknown edges (inserted state signals)
    default to [true]. *)
val coexcited_pred :
  summary -> string * Sg.edge_dir -> string * Sg.edge_dir -> bool
