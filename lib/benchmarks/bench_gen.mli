(** Parameterized STG families for scaling experiments.

    The paper's headline claim is that modular partitioning scales to
    state graphs that defeat direct SAT synthesis.  These generators
    produce arbitrarily large, live, safe, consistent STGs with genuine
    CSC conflicts:

    - {!pipeline}: a chain of request/acknowledge stages where each stage
      contains a conflict-producing pulse — states grow linearly;
    - {!concurrent_pulsers}: fork/join over [k] pulse branches — states
      grow as roughly [5^k];
    - {!mixed}: [stages] sequential sections, each forking into
      [branches] concurrent pulsers — the knob used for the scaling
      figure. *)

(** [pipeline ~stages] builds a [4×stages]-state controller;
    [stages ≥ 1]. *)
val pipeline : stages:int -> Stg.t

(** [concurrent_pulsers ~branches] forks into [branches] concurrent
    request pulses; [1 ≤ branches ≤ 8]. *)
val concurrent_pulsers : branches:int -> Stg.t

(** [mixed ~stages ~branches] chains [stages] concurrent sections. *)
val mixed : stages:int -> branches:int -> Stg.t

(** [lock_ring ~signals] builds a daisy-chain token ring over [signals]
    wires (all rise in order, then all fall): every signal pair strictly
    alternates, so the lock-relation prescreen (lint rule A6) certifies
    CSC statically, and synthesis, which finds CSC on the complete
    state graph, needs no SAT at all.
    [2 ≤ signals ≤ 26]. *)
val lock_ring : signals:int -> Stg.t

(** [parallel_rings ~rings] runs [rings] independent four-phase
    handshake rings fully concurrently ([1 ≤ rings ≤ 8]).  CSC holds
    (each ring's two wires encode its own phase), but cross-ring signal
    pairs never alternate, so the A6 lock-relation prescreen abstains —
    only the exact prefix rule U3 certifies this family statically, with
    a prefix linear in [rings] against [4^rings] states.  Synthesis
    finds CSC on the complete state graph and skips SAT. *)
val parallel_rings : rings:int -> Stg.t

(** [random ~rand] draws a small well-formed STG: a random seq/par/choice
    tree whose leaves are four-phase pulses on fresh request/acknowledge
    pairs (at most 4 pulses, so state spaces stay explorable).  Always
    live, safe and consistent; usually carries CSC conflicts.  Used by
    the conformance oracle's differential fuzzing harness. *)
val random : rand:Random.State.t -> Stg.t
