(** State-graph expansion: realising state signals as ordinary signals.

    Once a state signal has a consistent 4-valued assignment, it is made
    real by inserting its transitions into the state graph (paper §3.5):
    a state valued [Up] splits into a bit-0 and a bit-1 half joined by an
    [n+] edge (dually for [Dn]); stable states keep a single copy.  Edges
    are re-routed according to the legal value pairs, with concurrent
    diamonds for [Up→Up] / [Dn→Dn] edges (semi-modularity).  The final
    state counts reported in Table 1 come from this step. *)

(** [expand sg] realises all extras in one pass: it counts the expanded
    edges, fills the three edge arrays at their exact length and builds
    the result with a single {!Sg.make}, which checks every edge's
    codes.  The
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
    Returns [sg] itself when it has no extras; otherwise bumps
    {!Counter.expansion}. *)
val expand : Sg.t -> Sg.t

(** {1 Folded decisions}

    The checks implementability needs, answered about [expand sg]
    without building it: no {!Sg.make}, no expanded edge array.  An expanded state
    is a pair ([m], [c]) of a state of [sg] and a copy index, numbered
    as {!expand} numbers them.  Its code is [m]'s base code plus each
    extra's stable value or copy bit ([Up] is its bit, [Dn] its
    complement).  Its non-input excitation follows from [sg] and the
    copy bits:
    - extra [i] is excited in the copies where its bit is 0 (the A
      copies) only;
    - an original edge [e] out of [m] is excited in copy [c] iff [c]
      holds [e]'s leaving bits, the extras valued [Up → V1] or
      [Dn → V0] along [e]; the bits of extras concurrent along [e]
      ([Up → Up], [Dn → Dn]) are free.

    CSC is decided on the same-base-code classes of [sg] alone: two
    copies of states with different base codes differ in those bits,
    and two copies of one state differ in an excited extra's bit, so no
    other pair of expanded states can share a code.  Semi-modularity is
    checked per original edge and assignment of its free bits, on
    per-copy rise and fall masks.  An inserted transition never disables
    an event: its target copy holds every bit its source holds, plus its
    own.

    A graph with no extras is its own expansion and is checked directly
    ({!Csc.csc_satisfied}, {!Persistency}).
    @raise Sg.Inconsistent when the expansion would have more than 62
    signals, as {!expand} does.

    {b Kernel.}  A check costs the copies it looks at, with no table
    sized to the copies beyond the two mask arrays:
    - the layout keeps two masks over extras per state, the extras
      excited there and their values in copy 0; copy [c]'s extra values
      are copy 0's XORed with the excited extras whose bit [c] sets,
      and the copies of a state are visited in Gray-code order, so each
      copy's values cost one XOR;
    - each original edge's route (leaving bits and free bits at both
      ends) is computed once per check and read by both the excitation
      fill and the violation scan;
    - CSC groups the states by base code ({!Sg.group_by}) and reuses
      one open-addressing table ({!Sg.Slots}), sized to the largest
      class's copies, for every class;
    - {!implementable} stops at the first violating copy edge. *)

(** [csc_satisfied sg] = [Csc.csc_satisfied (expand sg)]. *)
val csc_satisfied : Sg.t -> bool

(** [n_violations sg] = [List.length (Persistency.violations (expand sg))]. *)
val n_violations : Sg.t -> int

(** [implementable sg] holds when [expand sg] satisfies CSC and is
    semi-modular: both checks on one folded view.  Bumps
    {!Counter.implementability}. *)
val implementable : Sg.t -> bool

(** [implementable_csc sg] is [implementable sg] for a graph whose
    expansion is known to satisfy CSC (a graph with CSC and no state
    signal, say): only semi-modularity is decided.  Bumps
    {!Counter.implementability}. *)
val implementable_csc : Sg.t -> bool

