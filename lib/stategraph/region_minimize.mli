(** Excitation-region minimization for inserted state signals.

    {!Propagation.propagate} gives a state signal the {e same} value on
    every complete-graph state covered by one modular state, so its
    excitation region (the [Up]/[Dn] states) can span a whole product
    subgraph.  Large regions are doubly harmful: expansion splits every
    excited state (inflating the final state count far beyond the paper's
    ~1.5×), and a later module cannot hide any signal whose ε-merge would
    put a rise and a fall of the state signal into one class.

    This pass serialises each inserted transition: it greedily re-labels
    excited states with a stable value whenever the flip keeps every
    incident edge pair legal ({!Fourval.edge_ok}) and does not increase
    the number of CSC conflicts.  Edge legality guarantees an [Up] state
    survives on every 0→1 path, so the signal still fires exactly where
    it must.

    States are tried in index order, pass after pass, until a pass flips
    nothing; that order fixes the result.  The passes run as a worklist:
    a state is examined again only when something its decision reads has
    changed since it was last examined, that is when a neighbour flipped
    or a state whose full code equals its own up to the extra's bit
    flipped.  A state marked behind the cursor waits for the next pass,
    so the flips, and the labeling, are those of a full re-scan.  A pass
    only walks a flag array; the decisions it makes are paid for by the
    flips' neighbourhoods.  Each {!Counter.minimize_visit} is one excited
    state examined: at most 1.5 and 2.3 per state of the graph on
    pulsers-5 and mixed-3x3, where re-scanning took 9.4 and 18.7
    (EXPERIMENTS E31). *)

(** [minimize_extra sg ~index] shrinks the excitation region of the
    [index]-th extra; returns the (possibly unchanged) graph. *)
val minimize_extra : Sg.t -> index:int -> Sg.t

(** [minimize sg] applies {!minimize_extra} to every extra. *)
val minimize : Sg.t -> Sg.t
