(** Symbolic reachability — two entry points that list exactly the
    edges of {!Reach.explore} on 1-safe nets.

    {!probe_edges} is the sweep synthesis runs ({!Sg.reachable}): a
    breadth-first sweep over bitmask markings ({!Symenc}), with no
    marking array or string key per state.

    {!explore_edges} is the [`Symbolic] override of {!Sg.of_stg}: it
    builds a partitioned transition relation clustered by support
    overlap ({!Symrel}), runs breadth-first image computation with the
    fused relational product {!Bdd.and_exists} to the reachable-set
    fixpoint, and then lists the explicit graph's edges with the same
    bitmask sweep, sized by the fixpoint's exact state count.

    The result is one flat edge buffer, {e identical} to the
    [edges] buffer of what [Reach.explore] returns — same state
    numbering (breadth-first discovery order from the initial marking,
    transitions fired in increasing id order) and same edge order — so
    every downstream consumer, including [Sg.digest], is oblivious to
    which engine ran.

    Nets outside the encoding (more than {!Symenc.max_places} places,
    a non-1-safe initial marking) and nets where a reachable transition
    firing would break 1-safety fall back to the explicit sweep, which
    reproduces the old behaviour exactly; past the cap, the fixpoint's
    audit for the latter is performed symbolically and is exact. *)

(** How an exploration went, for benches and diagnostics. *)
type info = {
  i_symbolic : bool;  (** false when the engine fell back to explicit *)
  i_fallback : string option;  (** why, when it did *)
  i_states : int;
  i_clusters : int;  (** transition-relation clusters built *)
  i_iterations : int;  (** breadth-first image steps to the fixpoint *)
  i_bdd_nodes : int;  (** manager nodes live after the fixpoint *)
}

(** [explore_edges ?max_states net] builds the
    reachability graph symbolically: [(n_states, buf, n_edges)] where
    edge [e] is the triple [(buf.(3e), buf.(3e+1), buf.(3e+2))] =
    (source state, transition, destination state) of the graph
    {!Reach.explore} would return — identical numbering, identical edge
    order, the same buffer as its [edges] — without materializing the
    markings.  The state-graph derivation reads nothing else; skipping
    the markings is where much of the end-to-end win over the explicit
    sweep comes from.
    Transition-relation clusters are capped at
    {!Symrel.default_cluster_max} places of support.
    @param max_states exploration cap, default [100_000] — the same
      contract as [Reach.explore]
    @raise Reach.Too_many_states if more markings than the cap are
      reachable (detected by exact onset counting before any
      enumeration). *)
val explore_edges : ?max_states:int -> Petri.t -> int * int array * int

(** [explore_edges_info] additionally reports how it went. *)
val explore_edges_info :
  ?max_states:int -> Petri.t -> (int * int array * int) * info

(** [probe_edges ~max_states enc] is the reachability graph of
    [enc.net] as [(n_states, buf, n_edges)], the same numbering, edge
    order and used buffer cells as the [edges] of [Reach.explore
    ~max_states], listed by the replay's bitmask sweep with no fixpoint:
    its table starts small and grows as markings are discovered.  It
    counts as one explicit exploration ([Counter.reach]).  A firing that
    breaks 1-safety hands the net to [Reach.explore ~max_states], which
    counts itself.  This is the one sweep {!Sg.reachable} runs on every
    net the encoding accepts, capped at the caller's [max_states].
    @raise Reach.Too_many_states [max_states] if more markings than
      [max_states] are reachable. *)
val probe_edges : max_states:int -> Symenc.t -> int * int array * int
