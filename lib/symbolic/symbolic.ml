(* Symbolic reachability: two entry points over one bitmask kernel.

   The contract is byte-identity with [Reach.explore]'s edges: state 0
   is the initial marking, states are numbered in breadth-first
   discovery order, and each state fires its enabled transitions in
   increasing id order.  Everything downstream (state-graph derivation,
   CSC solving, netlists, digests) is therefore oblivious to which
   engine ran.

   The one result is the state count and a flat edge buffer, which is
   everything the state-graph derivation reads; no marking, adjacency
   list or edge tuple is materialized.

   The kernel, [mask_sweep], is a breadth-first sweep over bitmask
   markings.  [probe_edges] is the sweep synthesis runs: [Sg.reachable]
   calls it on every encodable net, its table growing from 256 markings
   up to the caller's cap, and it lists exactly the edges
   [Reach.explore] lists at the cost of a mask test and a table lookup
   per edge.  [explore_edges] is the [`Symbolic] override of
   [Sg.of_stg]: BFS image computation over the partitioned transition
   relation to the reachable-set fixpoint, whose exact onset count
   checks the cap before any enumeration and sizes the same sweep's
   table and edge buffer.

   Boolean semantics equals token-counting semantics only while the net
   stays 1-safe, so every firing swept is audited (one mask test) for
   re-marking a fanout place it does not consume; any hit (like a
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

(* Bits of an open-addressing table holding [n] keys at load factor at
   most 1/2. *)
let table_bits n =
  let rec go b = if 1 lsl b >= 2 * n then b else go (b + 1) in
  go 4

(* The one bitmask sweep: the breadth-first sweep of [Reach.explore]
   over bitmask markings.  State 0 is the initial marking, each state
   fires its enabled transitions in increasing id order, successors are
   interned through a flat open-addressing table — no packed strings,
   no polymorphic hashing, no per-step allocation.  Discovery order is
   FIFO, so the marking array doubles as its own work queue.

   The arrays start sized for [size] states and double, up to [cap],
   when a new marking finds them full; a marking past the [cap]-th
   raises [Reach.Too_many_states cap], as the explicit sweep does.  The
   replay after the fixpoint passes the exact state count as both, so
   nothing grows there; the capped probe starts small.  The edge buffer
   starts at one edge per state and, when full, is resized to the
   out-degree seen so far times the states the arrays hold (plus a
   sixteenth, and at least half again): on the replay that is the exact
   state count, so the buffer is resized about once.

   Each firing is audited for 1-safety on the way (one mask test): a
   transition about to re-mark a fanout place it does not consume raises
   [Unsafe_fire], and the caller hands over to the explicit sweep.  The
   audit is exact, because the enabling marking of the first unsafe
   firing is reached through 1-safe markings only, where boolean and
   counting semantics coincide; so is everything interned before it.

   Returns the state count and the edges as one flat buffer of
   [(src, t, dst)] int triples with their count. *)
let mask_sweep enc ~size ~cap =
  let open Symenc in
  let nt = enc.n_transitions and np = enc.n_places in
  let pre = enc.pre_mask in
  (* per-transition masks hoisted out of the loop: the fanout places
     not consumed (the 1-safety audit) and the complement of the fanin
     (the firing rule) *)
  let strict = Array.init nt (fun t -> enc.post_mask.(t) land lnot pre.(t)) in
  let fire_or = enc.post_mask and fire_and = Array.map lnot pre in
  (* The table lookup is the only memory-random work per edge, so the
     layout is chosen to touch as few cache lines per probe as possible:
     one word per slot, [id lsl np lor mask], when [cap] ids fit beside
     the mask, else key and id interleaved, still one cache line. *)
  let narrow = np + table_bits cap <= 62 in
  let kmask = (1 lsl np) - 1 in
  let masks = ref [||] and tbl = ref [||] and tmask = ref 0 in
  let assigned = ref 0 in
  (* the empty slot where [mask] goes, which no key holds yet *)
  let free_slot mask =
    let t = !tbl and tm = !tmask in
    let i = ref (hash_mask mask land tm) in
    if narrow then
      while t.(!i) >= 0 do
        i := (!i + 1) land tm
      done
    else
      while t.((2 * !i) + 1) >= 0 do
        i := (!i + 1) land tm
      done;
    !i
  in
  let set i mask id =
    let t = !tbl in
    if narrow then t.(i) <- (id lsl np) lor mask
    else begin
      t.(2 * i) <- mask;
      t.((2 * i) + 1) <- id
    end
  in
  let resize n =
    let old = !masks in
    masks := Array.make n 0;
    Array.blit old 0 !masks 0 !assigned;
    let bits = table_bits n in
    tmask := (1 lsl bits) - 1;
    tbl := Array.make ((if narrow then 1 else 2) lsl bits) (-1);
    for id = 0 to !assigned - 1 do
      set (free_slot old.(id)) old.(id) id
    done
  in
  resize (max 0 size);
  (* a new marking, bound for slot [i] *)
  let add mask i =
    let id = !assigned in
    if id >= cap then raise (Reach.Too_many_states cap);
    if id < Array.length !masks then set i mask id
    else begin
      resize (min cap (max 16 (2 * id)));
      set (free_slot mask) mask id
    end;
    !masks.(id) <- mask;
    incr assigned;
    id
  in
  let intern mask =
    let t = !tbl and tm = !tmask in
    let i = ref (hash_mask mask land tm) in
    if narrow then begin
      let v = ref t.(!i) in
      while !v >= 0 && !v land kmask <> mask do
        i := (!i + 1) land tm;
        v := t.(!i)
      done;
      if !v >= 0 then !v lsr np else add mask !i
    end
    else begin
      while t.((2 * !i) + 1) >= 0 && t.(2 * !i) <> mask do
        i := (!i + 1) land tm
      done;
      let id = t.((2 * !i) + 1) in
      if id >= 0 then id else add mask !i
    end
  in
  let edata = ref (Array.make (3 * max 64 size) 0) and elen = ref 0 in
  let i = ref 0 in
  let grow_edges () =
    let old = !edata in
    let len = Array.length old in
    let est = !elen * Array.length !masks / max 1 !i in
    let d = Array.make (max (est + (est / 16) + (3 * nt)) (len + (len / 2))) 0 in
    Array.blit old 0 d 0 !elen;
    edata := d
  in
  ignore (intern enc.init_mask : int);
  while !i < !assigned do
    let m = !masks.(!i) in
    for t = 0 to nt - 1 do
      let p = pre.(t) in
      if m land p = p then begin
        if m land strict.(t) <> 0 then raise (Unsafe_fire t);
        if !elen + 3 > Array.length !edata then grow_edges ();
        let dst = intern ((m land fire_and.(t)) lor fire_or.(t)) in
        let e = !edata in
        e.(!elen) <- !i;
        e.(!elen + 1) <- t;
        e.(!elen + 2) <- dst;
        elen := !elen + 3
      end
    done;
    incr i
  done;
  (!assigned, !edata, !elen / 3)

(* The fixpoint itself: the manager, relation, reached set, iteration
   count and exact state count. *)
type fixpoint = {
  fx_mgr : Bdd.manager;
  fx_rel : Symrel.t;
  fx_reached : Bdd.node;
  fx_iters : int;
  fx_states : int;
}

let fixpoint enc =
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
  {
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

(* The explicit sweep, for a net outside the encoding or one that
   fires unsafely. *)
let fall_back ?max_states net ~reason =
  let g = Reach.explore ?max_states net in
  ((Reach.n_states g, g.Reach.edges, Reach.n_edges g), explicit_info ~reason g)

let probe_edges ~max_states enc =
  match mask_sweep enc ~size:(min max_states 256) ~cap:max_states with
  | g ->
    Counter.bump Counter.reach;
    g
  | exception (Reach.Too_many_states _ as overflow) ->
    Counter.bump Counter.reach;
    raise overflow
  | exception Unsafe_fire t ->
    let net = enc.Symenc.net in
    fst (fall_back ~max_states net ~reason:(unsafe_reason net t))

let explore_edges_info ?(max_states = 100_000) net =
  match Symenc.unsupported net with
  | Some reason -> fall_back ~max_states net ~reason
  | None ->
    let enc = Symenc.make net in
    let fx = fixpoint enc in
    if fx.fx_states > max_states then
      (* Over budget.  The boolean onset only over-approximates the real
         state count when some firing breaks 1-safety, so audit that
         symbolically before deciding: an unsafe net belongs to the
         explicit sweep (whose own cap keeps the same contract), a safe
         one raises exactly what the explicit sweep would have. *)
      match unsafe_transition fx.fx_mgr enc fx.fx_reached with
      | Some t -> fall_back ~max_states net ~reason:(unsafe_reason net t)
      | None -> raise (Reach.Too_many_states max_states)
    else
      match mask_sweep enc ~size:fx.fx_states ~cap:fx.fx_states with
      | (n, _, _) as g ->
        assert (n = fx.fx_states);
        Counter.bump Counter.symbolic;
        (g, sym_info fx)
      | exception Unsafe_fire t ->
        fall_back ~max_states net ~reason:(unsafe_reason net t)

let explore_edges ?max_states net = fst (explore_edges_info ?max_states net)
