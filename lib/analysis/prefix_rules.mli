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
    - {b U3} ([U3-coding]): USC/CSC conflict detection on the state
      graph Σ, read from the reachability every Σ shares
      ({!Sg.reachable}, the one sweep {!Sg.of_stg} runs) and
      built by synthesis' own builder ({!Sg.of_transition_edges}), then
      judged by {!Csc}.  A conflict-free verdict is a static CSC
      certificate for lint; synthesis reads the same verdict off the
      complete state graph it builds anyway ({!Csc.csc_satisfied}).  An
      STG without a consistent state assignment has no Σ: U3 and U4
      abstain from their verdicts, and U3 reports the {!Sg.Inconsistent}
      message — the one every Σ-building command reports — as an error.
    - {b U4} ([U4-statebound]): exact state-graph size (markings and
      ε-classes) reported as a diagnostic, or, on a complete prefix
      past the marking cap, an info naming the cap at which U3 and U4
      abstained.  Synthesis picks its constraint backend from the
      complete state graph instead (see {!Mpart.choose_backend}).

    U1 and U2 are decided on the prefix alone; U3 and U4 explore only
    when the prefix is complete, up to 262,144 markings.  All verdicts
    are tri-state: when the prefix or the exploration hit their caps
    the analysis abstains ([None]s) rather than guessing.  No cap is
    hit silently: the [U0-prefix] info diagnostic records a truncated
    prefix, and a [U4-statebound] info the marking cap. *)

type summary = {
  s_events : int;  (** prefix events, cutoffs included *)
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
      (** Σ's state count ([Sg.n_states]), dummy-connected states
          merged *)
  s_usc : bool option;  (** unique state codes hold *)
  s_csc : bool option;  (** complete state codes hold (U3) *)
  s_conflicts : int option;
      (** CSC conflict pairs of Σ ([Csc.n_conflicts]); [s_csc] is
          [s_conflicts = Some 0] *)
  s_inconsistent : string option;
      (** the {!Sg.Inconsistent} message when the reachability graph
          admits no consistent state assignment (every Σ verdict above
          is then [None]) *)
}

(** [analyze ?jobs ?max_events stg] builds the prefix (at most
    [max_events] events, default 2048) and evaluates every rule.  On a
    complete prefix U3 and U4 make one {!Sg.reachable} call capped at
    262,144 markings, and abstain past it; on a truncated one they make
    none.  [jobs] is ignored: the prefix is built on one domain, and the
    parameter remains only because the end-to-end benchmark still
    passes it.  The result contains no timings or machine state, so it
    is cache-safe ({!Mpart.prefix_summary} memoizes it by STG
    digest). *)
val analyze : ?jobs:int -> ?max_events:int -> Stg.t -> summary

(** [diagnostics ~loc stg summary] renders the verdicts as lint
    diagnostics: U1/U2 refutations and an inconsistent state
    assignment (U3) are errors, U1 proofs and the other U3/U4 findings
    are informational (shipped STGs legitimately carry
    CSC conflicts — that is what synthesis resolves — so U3 must not
    trip [--strict]). *)
val diagnostics :
  loc:Diagnostic.locator -> Stg.t -> summary -> Diagnostic.t list

(** [exact_mutex summary] is the [?exact] oracle for {!Autoconc.check}:
    [Some true] when the pair is truly step-coenabled (U2 reports it as
    an error), [Some false] when the prefix proves it impossible (the
    A5 warning is dropped), [None] when the prefix abstained. *)
val exact_mutex : summary -> int -> int -> bool option
