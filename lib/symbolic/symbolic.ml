(* Symbolic reachability: BFS image computation over the partitioned
   transition relation to the reachable-set fixpoint, then a replay of
   the explicit sweep over the fixpoint that rebuilds the explicit
   graph field-for-field.

   The contract is byte-identity with [Reach.explore]'s edges: state 0
   is the initial marking, states are numbered in breadth-first
   discovery order, and each state fires its enabled transitions in
   increasing id order.  Everything downstream (state-graph derivation,
   CSC solving, netlists, digests) is therefore oblivious to which
   engine ran.

   The one result is the state count and a flat edge buffer, which is
   everything the state-graph derivation reads; no marking, adjacency
   list or edge tuple is materialized, which is where most of the
   end-to-end speedup over the explicit sweep comes from, since the
   fixpoint itself is orders of magnitude faster than enumeration.

   Boolean semantics equals token-counting semantics only while the net
   stays 1-safe, so every firing replayed is audited (one mask test)
   for re-marking a fanout place it does not consume; any hit (like a
   non-1-safe initial marking or a net wider than the mask encoding)
   falls back to the explicit sweep, keeping behaviour on ill-formed
   nets exactly as before. *)

type info = {
  i_symbolic : bool;
  i_fallback : string option;
  i_states : int;
  i_clusters : int;
  i_iterations : int;
  i_bdd_nodes : int;
}

let explicit_info ~reason g =
  {
    i_symbolic = false;
    i_fallback = Some reason;
    i_states = Reach.n_states g;
    i_clusters = 0;
    i_iterations = 0;
    i_bdd_nodes = 0;
  }

(* saturating arithmetic: counts are compared against the exploration
   cap, so past [max_int] the exact value is irrelevant *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

let sat_shift a k =
  if a = 0 then 0
  else if k >= 62 then max_int
  else
    let s = a lsl k in
    if s < 0 || s asr k <> a then max_int else s

(* Exact number of onset markings over the current-state (even)
   variables, from memoized per-node suffix counts.  The memo is a
   dense array over [Bdd.index] — no hashing — and the count is exact
   up to saturation, so the exploration-cap check happens before any
   per-state work. *)
let onset_count mgr n_places root =
  let memo = Array.make (Bdd.n_nodes mgr + 2) (-1) in
  let rec cnt u =
    let i = Bdd.index u in
    if memo.(i) >= 0 then memo.(i)
    else begin
      let p = Bdd.top_var mgr u / 2 in
      let c =
        sat_add (below (Bdd.low mgr u) (p + 1)) (below (Bdd.high mgr u) (p + 1))
      in
      memo.(i) <- c;
      c
    end
  and below u p =
    if Bdd.is_false u then 0
    else if Bdd.is_true u then sat_shift 1 (n_places - p)
    else sat_shift (cnt u) ((Bdd.top_var mgr u / 2) - p)
  in
  below root 0

(* Multiply-xor avalanche over one mask, mirroring the BDD engine's
   unique-table hash: the replay's interning must never fall back to
   polymorphic hashing, and masks are single immediates, so one round
   of mixing suffices. *)
let hash_mask x =
  let x = (x lxor (x lsr 31)) * 0x9E3779B1 in
  let x = x lxor (x lsr 16) in
  let x = x * 0x45D9F3B in
  x lxor (x lsr 16)

(* Symbolic 1-safety audit, used only when the onset is too large to
   replay: transition [t] fires unsafely from some reachable marking
   iff R ∧ (fanins of t marked) ∧ (some fanout of t outside the fanins
   already marked) is non-empty.  The enabling marking of the *first*
   unsafe firing is reached through 1-safe markings only, so it is
   correctly inside R and the audit is exact.  (The replay performs the
   same audit inline, one mask test per edge, so the hot path never
   pays for these conjunctions.) *)
let unsafe_transition mgr enc reached =
  let open Symenc in
  let exception Found of int in
  try
    for t = 0 to enc.n_transitions - 1 do
      let strict = enc.post_mask.(t) land lnot enc.pre_mask.(t) in
      if strict <> 0 then begin
        let en = ref reached and clash = ref Bdd.bdd_false in
        for p = 0 to enc.n_places - 1 do
          if enc.pre_mask.(t) land (1 lsl p) <> 0 then
            en := Bdd.band mgr !en (Bdd.var mgr (cur_var enc p));
          if strict land (1 lsl p) <> 0 then
            clash := Bdd.bor mgr !clash (Bdd.var mgr (cur_var enc p))
        done;
        if not (Bdd.is_false (Bdd.band mgr !en !clash)) then raise (Found t)
      end
    done;
    None
  with Found t -> Some t

exception Unsafe_fire of int

(* Replay the breadth-first sweep of [Reach.explore] over bitmask
   markings: state 0 is the initial marking, each state fires its
   enabled transitions in increasing id order, successors are interned
   through a flat open-addressing table — no packed strings, no
   polymorphic hashing, no per-step allocation (edges land in a
   growable flat int buffer), and the exact state count from
   [onset_count] sizes everything up front.  Discovery order is FIFO,
   so the marking table doubles as its own work queue.  Each firing is
   audited for 1-safety on the way (one mask test): a transition about
   to re-mark a fanout place it does not consume raises [Unsafe_fire],
   and the caller hands over to the explicit sweep.  The audit is
   exact, because the enabling marking of the first unsafe firing is
   reached through 1-safe markings only, where boolean and counting
   semantics coincide.

   Returns the edges as one flat buffer of [(src, t, dst)] int triples
   and their count. *)
let replay enc n_states =
  let open Symenc in
  let nt = enc.n_transitions in
  let pre = enc.pre_mask in
  (* per-transition masks hoisted out of the replay loop: the fanout
     places not consumed (the 1-safety audit) and the complement of the
     fanin (the firing rule) *)
  let strict =
    Array.init nt (fun t -> enc.post_mask.(t) land lnot pre.(t))
  in
  let fire_or = enc.post_mask and fire_and = Array.map lnot pre in
  let masks = Array.make n_states 0 in
  (* Open addressing at load factor <= 1/2; this lookup is the only
     memory-random work per edge, so the layout is chosen to touch as
     few cache lines per probe as possible. *)
  let tbits =
    let rec go b = if 1 lsl b >= 2 * n_states then b else go (b + 1) in
    go 4
  in
  let tmask = (1 lsl tbits) - 1 in
  let assigned = ref 0 in
  (* the replay stays inside the onset until the first unsafe firing,
     which the audit in the sweep below catches before its result is
     interned — hence the [id < n_states] assertions *)
  let np = enc.n_places in
  let intern =
    if np + tbits <= 62 then begin
      (* entry = [id lsl np lor mask], one word per slot: a probe
         touches half the cache lines of the two-word layout *)
      let tbl = Array.make (tmask + 1) (-1) in
      let kmask = (1 lsl np) - 1 in
      fun mask ->
        let i = ref (hash_mask mask land tmask) in
        let v = ref tbl.(!i) in
        while !v >= 0 && !v land kmask <> mask do
          i := (!i + 1) land tmask;
          v := tbl.(!i)
        done;
        if !v >= 0 then !v lsr np
        else begin
          let id = !assigned in
          assert (id < n_states);
          tbl.(!i) <- (id lsl np) lor mask;
          masks.(id) <- mask;
          incr assigned;
          id
        end
    end
    else begin
      (* wide nets: key and id interleaved, still one cache line *)
      let smask = (2 * (tmask + 1)) - 1 in
      let tbl = Array.make (2 * (tmask + 1)) (-1) in
      fun mask ->
        let j = ref ((hash_mask mask land tmask) * 2) in
        while tbl.(!j + 1) >= 0 && tbl.(!j) <> mask do
          j := (!j + 2) land smask
        done;
        let id = tbl.(!j + 1) in
        if id >= 0 then id
        else begin
          let id = !assigned in
          assert (id < n_states);
          tbl.(!j) <- mask;
          tbl.(!j + 1) <- id;
          masks.(id) <- mask;
          incr assigned;
          id
        end
    end
  in
  let edata = ref (Array.make (3 * max 64 n_states) 0) in
  let elen = ref 0 in
  ignore (intern enc.init_mask : int);
  let i = ref 0 in
  while !i < !assigned do
    let m = masks.(!i) in
    for t = 0 to nt - 1 do
      let p = pre.(t) in
      if m land p = p then begin
        if m land strict.(t) <> 0 then raise (Unsafe_fire t);
        if !elen + 3 > Array.length !edata then begin
          let d = Array.make (2 * Array.length !edata) 0 in
          Array.blit !edata 0 d 0 !elen;
          edata := d
        end;
        let e = !edata in
        e.(!elen) <- !i;
        e.(!elen + 1) <- t;
        e.(!elen + 2) <- intern (m land fire_and.(t) lor fire_or.(t));
        elen := !elen + 3
      end
    done;
    incr i
  done;
  assert (!assigned = n_states);
  (!edata, !elen / 3)

(* The fixpoint itself.  Returns the manager, encoding, relation,
   reached set, iteration count and exact state count, or [Error reason]
   when the net is outside the encoding. *)
type fixpoint = {
  fx_enc : Symenc.t;
  fx_mgr : Bdd.manager;
  fx_rel : Symrel.t;
  fx_reached : Bdd.node;
  fx_iters : int;
  fx_states : int;
}

let fixpoint net =
  match Symenc.unsupported net with
  | Some reason -> Error reason
  | None ->
    let enc = Symenc.make net in
    let mgr = Bdd.manager ~cache_bits:15 () in
    let rel = Symrel.build mgr enc in
    let init = Symenc.marking_bdd mgr enc enc.Symenc.init_mask in
    let reached = ref init and frontier = ref init and iters = ref 0 in
    while not (Bdd.is_false !frontier) do
      let img = Symrel.image rel !frontier in
      let fresh = Bdd.band mgr img (Bdd.bnot mgr !reached) in
      reached := Bdd.bor mgr !reached fresh;
      frontier := fresh;
      incr iters
    done;
    Ok
      {
        fx_enc = enc;
        fx_mgr = mgr;
        fx_rel = rel;
        fx_reached = !reached;
        fx_iters = iters.contents;
        fx_states = onset_count mgr enc.Symenc.n_places !reached;
      }

let unsafe_reason net t =
  Printf.sprintf "transition %s can fire unsafely" (Petri.transition_name net t)

let sym_info fx =
  {
    i_symbolic = true;
    i_fallback = None;
    i_states = fx.fx_states;
    i_clusters = Symrel.n_clusters fx.fx_rel;
    i_iterations = fx.fx_iters;
    i_bdd_nodes = Bdd.n_nodes fx.fx_mgr;
  }

(* [run] drives one exploration to either a symbolic result (via
   [finish], which may still discover an unsafe firing during the
   replay) or an explicit fallback (via [fall], handed the reason). *)
let run ?(max_states = 100_000) net ~finish ~fall =
  match fixpoint net with
  | Error reason -> fall ~reason
  | Ok fx ->
    if fx.fx_states > max_states then (
      (* Over budget.  The boolean onset only over-approximates the
         real state count when some firing breaks 1-safety, so audit
         that symbolically before deciding: an unsafe net belongs to
         the explicit sweep (whose own cap keeps the same contract), a
         safe one raises exactly what the explicit sweep would have. *)
      match unsafe_transition fx.fx_mgr fx.fx_enc fx.fx_reached with
      | Some t -> fall ~reason:(unsafe_reason net t)
      | None -> raise (Reach.Too_many_states max_states))
    else (
      match finish fx with
      | r -> r
      | exception Unsafe_fire t -> fall ~reason:(unsafe_reason net t))

let explore_edges_info ?max_states net =
  run ?max_states net
    ~finish:(fun fx ->
      let edata, n_edges = replay fx.fx_enc fx.fx_states in
      Counter.bump Counter.symbolic;
      ((fx.fx_states, edata, n_edges), sym_info fx))
    ~fall:(fun ~reason ->
      let g = Reach.explore ?max_states net in
      ( (Reach.n_states g, g.Reach.edges, Reach.n_edges g),
        explicit_info ~reason g ))

let explore_edges ?max_states net = fst (explore_edges_info ?max_states net)
