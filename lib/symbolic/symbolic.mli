(** Reachability over bitmask markings — the one sweep behind every Σ,
    listing exactly the edges of {!Reach.explore}.

    {!probe_edges} is a breadth-first sweep over bitmask markings
    ({!Symenc}), with no marking array or string key per state.
    {!explore_edges} is the one dispatch: {!probe_edges} on every net
    the encoding accepts, {!Reach.explore} on any other.  {!Sg.reachable}
    calls it.

    The result is one flat edge buffer, {e identical} to the [edges]
    buffer of what [Reach.explore] returns — same state numbering
    (breadth-first discovery order from the initial marking, transitions
    fired in increasing id order) and same edge order — so every
    downstream consumer, including [Sg.digest], is oblivious to which
    sweep ran.

    Nets outside the encoding (more than {!Symenc.max_places} places, a
    non-1-safe initial marking) and nets where a reachable transition
    firing would break 1-safety are swept by {!Reach.explore}, which
    reproduces the old behaviour exactly. *)

(** [explore_edges ?max_states net] is the reachability graph of [net]
    as [(n_states, buf, n_edges)], edge [e] being the triple
    [(buf.(3e), buf.(3e+1), buf.(3e+2))] = (source state, transition,
    destination state) of the graph {!Reach.explore} would return —
    identical numbering, identical edge order, the same buffer cells as
    its [edges]; the buffer may be longer than [3 n_edges] cells.  An
    encodable net is swept by {!probe_edges}, any other by
    {!Reach.explore}; either counts one [Counter.reach].  The sweep is
    logged at debug level as [reachability: explicit engine, N states],
    with the reason in parentheses when the encoding refused the net.
    @param max_states exploration cap, default [100_000] — the same
      contract as [Reach.explore]
    @raise Reach.Too_many_states [max_states] if more markings than the
      cap are reachable. *)
val explore_edges : ?max_states:int -> Petri.t -> int * int array * int

(** [probe_edges ~max_states enc] is the reachability graph of
    [enc.net] as [(n_states, buf, n_edges)], the same numbering, edge
    order and used buffer cells as the [edges] of [Reach.explore
    ~max_states], listed by the bitmask sweep: its table starts small
    and grows as markings are discovered.  It counts as one explicit
    exploration ([Counter.reach]).  A firing that breaks 1-safety hands
    the net to [Reach.explore ~max_states], which counts itself.
    @raise Reach.Too_many_states [max_states] if more markings than
      [max_states] are reachable. *)
val probe_edges : max_states:int -> Symenc.t -> int * int array * int
