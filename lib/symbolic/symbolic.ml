(* Reachability over bitmask markings, the one sweep behind every Σ.

   The contract is byte-identity with [Reach.explore]'s edges: state 0
   is the initial marking, states are numbered in breadth-first
   discovery order, and each state fires its enabled transitions in
   increasing id order.  Everything downstream (state-graph derivation,
   CSC solving, netlists, digests) is therefore oblivious to which
   sweep ran.

   The one result is the state count and a flat edge buffer, which is
   everything the state-graph derivation reads; no marking, adjacency
   list or edge tuple is materialized.

   The kernel, [mask_sweep], is a breadth-first sweep over bitmask
   markings, its table growing from 256 markings up to the caller's
   cap; it lists exactly the edges [Reach.explore] lists at the cost of
   a mask test and a table lookup per edge.  [explore_edges] is the one
   dispatch: [probe_edges] on every net the encoding accepts,
   [Reach.explore] on any other.

   Boolean semantics equals token-counting semantics only while the net
   stays 1-safe, so every firing swept is audited (one mask test) for
   re-marking a fanout place it does not consume; any hit (like a
   non-1-safe initial marking or a net wider than the mask encoding)
   falls back to the explicit sweep, keeping behaviour on ill-formed
   nets exactly as before. *)

let log_src = Logs.Src.create "mpsyn.reach" ~doc:"reachability sweep"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Multiply-xor avalanche over one mask: the sweep's interning must
   never fall back to polymorphic hashing, and masks are single
   immediates, so one round of mixing suffices. *)
let hash_mask x =
  let x = (x lxor (x lsr 31)) * 0x9E3779B1 in
  let x = x lxor (x lsr 16) in
  let x = x * 0x45D9F3B in
  x lxor (x lsr 16)

exception Unsafe_fire

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

   The arrays start sized for 256 states (fewer under a smaller [cap])
   and double, up to [cap], when a new marking finds them full; a
   marking past the [cap]-th raises [Reach.Too_many_states cap], as the
   explicit sweep does.  The edge buffer starts at one edge per state
   and, when full, is resized to the out-degree seen so far times the
   states the arrays hold (plus a sixteenth, and at least half again).

   Each firing is audited for 1-safety on the way (one mask test): a
   transition about to re-mark a fanout place it does not consume raises
   [Unsafe_fire], and the caller hands over to the explicit sweep.  The
   audit is exact, because the enabling marking of the first unsafe
   firing is reached through 1-safe markings only, where boolean and
   counting semantics coincide; so is everything interned before it.

   Returns the state count and the edges as one flat buffer of
   [(src, t, dst)] int triples with their count. *)
let mask_sweep enc ~cap =
  let size = min cap 256 in
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
        if m land strict.(t) <> 0 then raise Unsafe_fire;
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

(* The explicit sweep, for a net outside the encoding or one that fires
   unsafely; [Reach.explore] counts itself. *)
let explicit ~max_states net =
  let g = Reach.explore ~max_states net in
  (Reach.n_states g, g.Reach.edges, Reach.n_edges g)

let probe_edges ~max_states enc =
  match mask_sweep enc ~cap:max_states with
  | g ->
    Counter.bump Counter.reach;
    g
  | exception (Reach.Too_many_states _ as overflow) ->
    Counter.bump Counter.reach;
    raise overflow
  | exception Unsafe_fire -> explicit ~max_states enc.Symenc.net

(* The one dispatch.  The debug line names the sweep, and for a net the
   encoding refused, why. *)
let explore_edges ?(max_states = 100_000) net =
  let engine, ((n, _, _) as g) =
    match Symenc.unsupported net with
    | Some reason ->
      (Printf.sprintf "explicit engine (%s)" reason, explicit ~max_states net)
    | None -> ("explicit engine", probe_edges ~max_states (Symenc.make net))
  in
  Log.debug (fun m -> m "reachability: %s, %d states" engine n);
  g
