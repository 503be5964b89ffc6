(** State-graph expansion: realising state signals as ordinary signals.

    Once a state signal has a consistent 4-valued assignment, it is made
    real by inserting its transitions into the state graph (paper §3.5):
    a state valued [Up] splits into a bit-0 and a bit-1 half joined by an
    [n+] edge (dually for [Dn]); stable states keep a single copy.  Edges
    are re-routed according to the legal value pairs, with concurrent
    diamonds for [Up→Up] / [Dn→Dn] edges (semi-modularity).  The final
    state counts reported in Table 1 come from this step. *)

(** [expand sg] realises all extras in one pass and builds the result
    with a single {!Sg.make}, which checks every edge's codes.  The
    graph is the one realising the extras one at a time, first to last,
    gives (each a new non-input signal appended after the existing
    ones), so the two have the same {!Sg.digest}:
    - {b signals}: [sg]'s signals, then one non-input signal per extra,
      in extras order, named after it;
    - {b states}: state [m] with [j] excited extras becomes [2^j]
      consecutive states, after all copies of states [< m].  Copy [c]
      lies before an excited extra's transition when that extra's bit of
      [c] is 0 and after it when the bit is 1; the bits are ordered with
      the first excited extra most significant;
    - {b edges}: the inserted transitions of the last extra, then those
      of the one before, down to the first extra; then the re-routed
      edges of [sg], in [sg]'s edge order.  Each extra's transitions run
      from every copy before it to the matching copy after it, by state
      and then by copy.  An edge along which [i] extras are concurrent
      ([Up → Up] or [Dn → Dn]) becomes [2^i] edges, ordered by those
      extras' bits with the first of them most significant;
    - {b initial}: the first copy of [sg]'s initial state.
    Returns [sg] itself when it has no extras. *)
val expand : Sg.t -> Sg.t
