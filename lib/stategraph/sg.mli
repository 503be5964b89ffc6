(** State graphs.

    A state graph is the finite automaton of all reachable states of an
    STG (paper §2): states carry a binary code over the visible signals
    (the consistent state assignment), and edges are labelled with signal
    transitions.  A state graph may additionally carry {e state signals}
    ("extras"): synthesis-inserted signals that do not yet have explicit
    transitions and instead assign one of {!Fourval.t} to every state.
    {!Sg_expand} later turns extras into ordinary signals.

    Every state graph is ε-free: a silent step (a dummy transition, or a
    hidden signal of a module) never labels an edge, because each
    builder merges the states it joins before the graph exists —
    {!of_transition_edges} for Σ, the input-set derivation for a
    module.

    The module is deliberately independent of {!Stg}: projections and
    expansions produce state graphs whose signal set no longer matches any
    STG. Codes are stored as [int] bitmasks, so at most 62 visible signals
    are supported (far beyond any published STG benchmark).

    {b Edge storage.}  Edges are numbered [0 .. n_edges - 1] and kept in
    three flat int arrays: source, {!label_code} and target.  The edge
    order is the builder's: Σ and a module keep each distinct edge at its
    first occurrence ({!distinct_edges}), {!Sg_expand.expand} documents
    its own.  [build] then indexes the edge ids once by source and once
    by target in CSR form (per-state offsets into one array of edge ids,
    each state's block in edge order), so {!iter_succ} and {!iter_pred}
    walk a slice of an int array.  A graph holds no boxed per-edge value:
    five words per edge (three for the edges, one per index) plus three
    per state (its code and the two offsets). *)

type edge_dir = R | F
type signal_info = { sname : string; non_input : bool }

(** An inserted state signal: a 4-valued assignment to every state. *)
type extra = { xname : string; values : Fourval.t array }

type t

exception Inconsistent of string
(** Raised when an STG admits no consistent state assignment, or when a
    constructed graph violates code consistency along an edge. *)

(** {1 Construction} *)

(** [make ~name ~signals ~codes ~src ~lab ~dst ~initial] builds a state
    graph with [Array.length codes] states whose edge [e] runs from
    [src.(e)] to [dst.(e)] under the label [lab.(e)] ({!label_code}); the
    graph keeps the three arrays, so the caller must not change them
    afterwards.  Checks that the arrays have one length, that edge
    endpoints are in range and that codes are consistent along every edge
    ([label_code s R] flips bit [s] from 0 to 1 and no other bit).
    @raise Inconsistent on violation. *)
val make :
  name:string ->
  signals:signal_info array ->
  codes:int array ->
  src:int array ->
  lab:int array ->
  dst:int array ->
  initial:int ->
  t

(** [reachable ?max_states stg] is the reachability graph of [stg] as
    [(n_states, edge buffer, n_edges)], the form
    {!of_transition_edges} reads: {!Symbolic.explore_edges} on [stg]'s
    net, one sweep capped at [max_states] (default [100_000]).  On a
    net the bitmask encoding accepts, the sweep is
    {!Symbolic.probe_edges} (the explicit sweep's edges without a
    marking array or a string key per state), and a firing that breaks
    1-safety hands it to {!Reach.explore}; a net the encoding refuses
    ({!Symenc.unsupported}) is swept by {!Reach.explore}.  Either way
    the net is explored once, with no threshold or retry, and every
    path numbers states and orders edges identically.  The sweep is
    logged at debug level as the explicit engine, with the reason when
    the encoding refused the net.  The buffer may be longer than
    [3 n_edges] cells.
    @raise Reach.Too_many_states [max_states] if more than
      [max_states] markings are reachable. *)
val reachable : ?max_states:int -> Stg.t -> int * int array * int

(** [of_stg ?max_states ?backend stg] derives the state graph Σ: hands
    the reachability graph's edges to {!of_transition_edges}.  Without
    [backend], the edges are those of {!reachable}, which every
    Σ-building command uses.
    @param backend [`Explicit] enumerates markings one at a time with
      {!Reach.explore}, the reference tests and benches compare the
      sweep against; [`Symbolic] runs {!reachable}'s sweep, the same as
      no [backend].  [`Symbolic] is kept only because bench/e2e passes
      it.  Both produce graphs identical to the default's, with
      identical {!digest}s.
    @raise Inconsistent if no consistent assignment exists.
    @raise Reach.Too_many_states if exploration exceeds the cap. *)
val of_stg : ?max_states:int -> ?backend:[ `Explicit | `Symbolic ] -> Stg.t -> t

(** [of_transition_edges stg ~n_states ~n_edges buf] builds Σ from a
    reachability graph of [stg] with [n_states] states, state 0 the
    initial one, and [n_edges] edges, edge [e] being the
    [(source, transition, target)] triple at [buf.(3e)], [buf.(3e + 1)]
    and [buf.(3e + 2)] (the buffer of {!Reach.t}).  One breadth-first pass
    over the edges gives every state its code relative to its
    component's lowest state ([code(dst) = code(src) lxor delta(t)],
    where [delta(t)] is the bit of [t]'s signal, 0 for a dummy); a
    second pass checks every edge's parity and fixes each signal's
    value at the root from any of its rises or falls.  A signal that
    only toggles reads 0 at that lowest state.  The states joined by
    dummy transitions are then merged and the graph built once:
    classes are numbered by first member and each projected edge kept
    at its first occurrence ({!distinct_edges}).  The single Σ
    builder: {!of_stg} passes the edges of {!reachable} or of
    {!Reach.explore}, the prefix rules those of {!reachable}.
    @raise Inconsistent if no consistent assignment exists — the message
      names the lowest such signal and the state where assigning it one
      signal at a time first fails — or [stg] has more than 62
      signals. *)
val of_transition_edges :
  Stg.t -> n_states:int -> n_edges:int -> int array -> t

(** {1 Accessors} *)

val name : t -> string
val n_states : t -> int
val n_signals : t -> int
val n_edges : t -> int
val initial : t -> int
val signal_name : t -> int -> string
val non_input : t -> int -> bool

(** [find_signal sg name] is the id of the visible signal called [name].
    @raise Not_found when absent. *)
val find_signal : t -> string -> int

(** [code sg m] is the binary code of state [m] over visible signals only
    (bit [s] = value of signal [s]). *)
val code : t -> int -> int

(** [bit sg m s] is the value of signal [s] in state [m]. *)
val bit : t -> int -> int -> bool

(** {1 Edges}

    Edge [e] ([0 <= e < n_edges sg]) fires signal [edge_signal sg e] in
    direction [edge_dir sg e] from [edge_src sg e] to [edge_dst sg e];
    [edge_label sg e] is its {!label_code}.  [iter_succ sg m f] applies
    [f] to every edge out of [m] in edge order, [iter_pred] to every edge
    into [m]; [exists_succ] and [exists_pred] try them in that order.
    None of these allocates. *)

val edge_src : t -> int -> int
val edge_dst : t -> int -> int
val edge_label : t -> int -> int
val edge_signal : t -> int -> int
val edge_dir : t -> int -> edge_dir
val iter_succ : t -> int -> (int -> unit) -> unit
val iter_pred : t -> int -> (int -> unit) -> unit
val exists_succ : t -> int -> (int -> bool) -> bool
val exists_pred : t -> int -> (int -> bool) -> bool
val out_degree : t -> int -> int

(** {1 State signals (extras)} *)

val extras : t -> extra array
val n_extras : t -> int

(** [shares_edges a b] holds when [b] has [a]'s very state codes and
    edges — the same arrays, as {!add_extra} and {!set_extra_values}
    leave them — so whatever is indexed by [a]'s states and edges
    indexes [b]'s. *)
val shares_edges : t -> t -> bool

(** [add_extra sg ~name ~values] attaches a new state signal.  Checks
    {!Fourval.edge_ok} along every edge.
    @raise Inconsistent on an illegal value pair. *)
val add_extra : t -> name:string -> values:Fourval.t array -> t

(** [set_extra_values sg ~index ~values] replaces the assignment of the
    [index]-th extra, re-validating edge consistency.
    @raise Inconsistent on an illegal value pair. *)
val set_extra_values : t -> index:int -> values:Fourval.t array -> t

(** [full_code sg m] is the code of [m] over visible signals and extras:
    extras contribute bits above the visible ones, in extras order. *)
val full_code : t -> int -> int

(** [full_width sg] = visible signals + extras. *)
val full_width : t -> int

(** {1 Excitation}

    An event is excited in a state when an outgoing edge fires it; an
    extra is excited when its value there is [Up] or [Dn].  Excitation of
    non-input signals is what CSC compares between equal-code states. *)

(** [excited_events sg m] lists [(signal, dir)] for visible signals with an
    outgoing transition at [m], sorted, deduplicated. *)
val excited_events : t -> int -> (int * edge_dir) list

(** [excitation_masks sg] is [(rise, fall)], two per-state bitmasks of
    the excited non-input visible events: bit [s] of [rise.(m)] is set
    when [(s, R)] is excited at [m], and [fall] likewise for [F].  Built
    in one pass over the edges, for checks that compare excitation
    without listing it. *)
val excitation_masks : t -> int array * int array

(** [full_excitation_masks sg] is {!excitation_masks} with every
    extra's excitation added above the visible signals: bit
    [n_signals sg + i] of [rise.(m)] (of [fall.(m)]) is set when the
    [i]-th extra is [Up] ([Dn]) at [m].  Equal-code states with
    different mask pairs are exactly the CSC conflicts. *)
val full_excitation_masks : t -> int array * int array

(** [implied_value sg m s] is the next value of signal [s] in state [m]:
    1 when [s] is excited to rise or is 1 and not excited to fall.  This
    is the value the logic function of [s] must produce in [m] (paper
    §3.5); two equal-code states with different implied values of a
    non-input signal are exactly the CSC conflicts that matter to that
    signal's module. *)
val implied_value : t -> int -> int -> bool

(** {1 Edge deduplication} *)

(** [label_code s d] is the label of an edge firing signal [s] in
    direction [d]: [2s] for [R], [2s + 1] for [F]. *)
val label_code : int -> edge_dir -> int

(** [distinct_edges ~n ~src ~lab ~dst len] keeps the first occurrence
    of each distinct edge [(src.(i), lab.(i), dst.(i))], [i < len], every
    source below [n]: the kept edges move, in order, to the front of the
    three arrays, which are returned cut to the kept count (uncopied when
    every slot is kept).  This is the edge order {!of_transition_edges}
    and the input-set derivation's modules keep.  An edge is looked up
    among those already kept out of its source, so no hashing is needed
    and a state with few distinct out-edges costs few comparisons. *)
val distinct_edges :
  n:int ->
  src:int array ->
  lab:int array ->
  dst:int array ->
  int ->
  int array * int array * int array

(** {1 Union-find} *)

(** Path-compressing union-find over [0 .. n-1] as a parent array
    ([create n]); the root of a class is its lowest member. *)
module Uf : sig
  val create : int -> int array
  val find : int array -> int -> int
  val union : int array -> int -> int -> unit
end

(** {1 Grouping by an int key} *)

(** An open-addressing table from int keys to int values, with room
    for [n] keys ([create n]) at most half full.  Every slot belongs to
    an [owner]; a slot held by another owner counts as free, so one
    table serves a sequence of groups, one owner each, as long as each
    group has at most [n] keys and is entered before the next. *)
module Slots : sig
  type t

  val create : int -> t

  (** [slot t ~owner x] is the slot holding key [x] for [owner].  When
      there is none it claims a free one, whose value is [-1]. *)
  val slot : t -> owner:int -> int -> int

  (** [find t ~owner x] is the slot holding key [x] for [owner], or [-1]
      when there is none; unlike {!slot} it claims nothing. *)
  val find : t -> owner:int -> int -> int

  val get : t -> int -> int
  val set : t -> int -> int -> unit
end

(** [group_by n key] groups [0 .. n-1] by [key] in time linear in [n]:
    [head.(m)] is the least member with [m]'s key and [next.(m)] the
    next larger one, [-1] after the last. *)
val group_by : int -> (int -> int) -> int array * int array

(** [sort_by n ~bits key] is [0 .. n-1] in increasing order of [key],
    equal keys in increasing order, for keys from 0 to [2^bits - 1]: a
    least-significant-digit radix sort, one counting pass per byte of
    [bits], so it costs [n] times the bytes, makes no comparison and
    allocates two arrays of [n]. *)
val sort_by : int -> bits:int -> (int -> int) -> int array

(** {1 Content digest} *)

(** [digest sg] is a hex digest of the graph's logical content (name,
    signals, codes, edges, extras, initial state), independent of how
    the graph was produced — the state-graph-level cache key of the
    content-addressed synthesis cache.  Two graphs constructed the same
    way digest identically; any content difference digests apart. *)
val digest : t -> string

(** {1 Output} *)

val pp_state : t -> Format.formatter -> int -> unit

(** [pp_event sg] prints [(s, d)] as [s]'s name followed by [+] or [-]. *)
val pp_event : t -> Format.formatter -> int * edge_dir -> unit

(** [to_dot sg] renders the graph in Graphviz dot syntax. *)
val to_dot : t -> string
