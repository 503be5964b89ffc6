(* Struct-of-arrays ROBDD engine.

   Nodes are integers indexing three parallel [int array]s (var/lo/hi);
   the constants are indices 0 (false) and 1 (true).  The unique table
   is open-addressing with linear probing over a power-of-two bucket
   array, keyed by an avalanche hash of the (var, lo, hi) triple — never
   the polymorphic structural hash, whose word-by-word folding collides
   catastrophically on dense small-int triples (CI greps this library
   to keep it that way).  The computed table is a
   fixed-size lossy cache (overwrite on collision), so memory stays
   bounded no matter how long a manager lives, and correctness never
   depends on a hit: a miss only recomputes.

   Each connective has a dedicated recursion (band/bor/bxor/bnot) with
   its own terminal cases and commutative-operand normalization instead
   of routing through [ite]; [ite] remains for three-operand callers. *)

type node = int

let bdd_false : node = 0
let bdd_true : node = 1
let of_bool b : node = if b then 1 else 0

(* Cache opcodes live in the third key slot.  Node indices are >= 0, so
   negative opcodes can never collide with an [ite] entry (whose third
   slot is its [h] operand). *)
let op_and = -1
let op_or = -2
let op_xor = -3
let op_not = -4
let op_restrict = -5
let op_exists = -6

(* [and_exists] entries carry their cube in the opcode slot as
   [op_and_exists_base - cube]; cube nodes are >= 2, so these keys are
   <= -18, disjoint from the opcodes above and from [ite] entries. *)
let op_and_exists_base = -16

type manager = {
  mutable var_ : int array; (* variable of node i; max_int for constants *)
  mutable lo_ : int array;
  mutable hi_ : int array;
  mutable n : int; (* nodes in use, constants included *)
  mutable buckets : int array; (* unique table: node index or -1 *)
  mutable mask : int; (* Array.length buckets - 1 *)
  mutable grow_at : int; (* rehash threshold *)
  cache : int array; (* computed table: 4 ints per entry, k0 = -1 empty *)
  cmask : int; (* entry-count mask *)
  mutable s_unique_lookups : int;
  mutable s_unique_hits : int;
  mutable s_cache_lookups : int;
  mutable s_cache_hits : int;
}

(* Multiply-xor combine of the three ints followed by a 16-bit
   avalanche finalizer (xorshift-multiply-xorshift); all constants fit
   OCaml's 63-bit native int. *)
let hash3 a b c =
  let x = (a * 0x9E3779B1) lxor (b * 0x85EBCA6B) lxor (c * 0xC2B2AE35) in
  let x = x lxor (x lsr 16) in
  let x = x * 0x45D9F3B in
  x lxor (x lsr 16)

(* Creation must stay cheap: hazard analysis opens a private manager
   per signal, so a few hundred KB of zeroed arrays per manager would
   dominate the small benchmarks.  Callers with blowup-prone workloads
   (the CNF product in [Bdd_solver]) pass a larger [cache_bits]. *)
let initial_capacity = 1024
let default_cache_bits = 12

let manager ?(cache_bits = default_cache_bits) () =
  if cache_bits < 0 || cache_bits > 24 then
    invalid_arg "Bdd.manager: cache_bits out of range";
  let var_ = Array.make initial_capacity 0 in
  let lo_ = Array.make initial_capacity 0 in
  let hi_ = Array.make initial_capacity 0 in
  var_.(0) <- max_int;
  var_.(1) <- max_int;
  let buckets = Array.make (2 * initial_capacity) (-1) in
  {
    var_;
    lo_;
    hi_;
    n = 2;
    buckets;
    mask = Array.length buckets - 1;
    grow_at = Array.length buckets * 7 / 10;
    cache = Array.make (4 lsl cache_bits) (-1);
    cmask = (1 lsl cache_bits) - 1;
    s_unique_lookups = 0;
    s_unique_hits = 0;
    s_cache_lookups = 0;
    s_cache_hits = 0;
  }

let rehash m =
  let size = 2 * (Array.length m.buckets) in
  let buckets = Array.make size (-1) in
  let mask = size - 1 in
  for u = 2 to m.n - 1 do
    let i = ref (hash3 m.var_.(u) m.lo_.(u) m.hi_.(u) land mask) in
    while buckets.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    buckets.(!i) <- u
  done;
  m.buckets <- buckets;
  m.mask <- mask;
  m.grow_at <- size * 7 / 10

let grow_nodes m =
  let cap = Array.length m.var_ in
  let cap' = 2 * cap in
  let extend a =
    let a' = Array.make cap' 0 in
    Array.blit a 0 a' 0 cap;
    a'
  in
  m.var_ <- extend m.var_;
  m.lo_ <- extend m.lo_;
  m.hi_ <- extend m.hi_

(* Find-or-create the node (v, lo, hi); the only allocation point. *)
let mk m v lo hi =
  if lo = hi then lo
  else begin
    m.s_unique_lookups <- m.s_unique_lookups + 1;
    let mask = m.mask in
    let buckets = m.buckets in
    let i = ref (hash3 v lo hi land mask) in
    let found = ref (-1) in
    (try
       while buckets.(!i) >= 0 do
         let u = buckets.(!i) in
         if m.var_.(u) = v && m.lo_.(u) = lo && m.hi_.(u) = hi then begin
           found := u;
           raise_notrace Exit
         end;
         i := (!i + 1) land mask
       done
     with Exit -> ());
    if !found >= 0 then begin
      m.s_unique_hits <- m.s_unique_hits + 1;
      !found
    end
    else begin
      if m.n = Array.length m.var_ then grow_nodes m;
      let u = m.n in
      m.n <- u + 1;
      m.var_.(u) <- v;
      m.lo_.(u) <- lo;
      m.hi_.(u) <- hi;
      buckets.(!i) <- u;
      if m.n > m.grow_at then rehash m;
      u
    end
  end

let var m v =
  if v < 0 then invalid_arg "Bdd.var: negative variable";
  mk m v 0 1

let nvar m v =
  if v < 0 then invalid_arg "Bdd.nvar: negative variable";
  mk m v 1 0

(* ---------------- computed table ---------------- *)

let cache_find m k0 k1 k2 =
  m.s_cache_lookups <- m.s_cache_lookups + 1;
  let e = 4 * (hash3 k0 k1 k2 land m.cmask) in
  let c = m.cache in
  if c.(e) = k0 && c.(e + 1) = k1 && c.(e + 2) = k2 then begin
    m.s_cache_hits <- m.s_cache_hits + 1;
    c.(e + 3)
  end
  else -1

let cache_store m k0 k1 k2 res =
  let e = 4 * (hash3 k0 k1 k2 land m.cmask) in
  let c = m.cache in
  c.(e) <- k0;
  c.(e + 1) <- k1;
  c.(e + 2) <- k2;
  c.(e + 3) <- res

(* ---------------- dedicated connectives ---------------- *)

let rec band m f g =
  if f = g then f
  else if f = 0 || g = 0 then 0
  else if f = 1 then g
  else if g = 1 then f
  else begin
    (* commutative: canonical operand order doubles the cache hit rate *)
    let f, g = if f <= g then (f, g) else (g, f) in
    let r = cache_find m f g op_and in
    if r >= 0 then r
    else begin
      let vf = m.var_.(f) and vg = m.var_.(g) in
      let v = if vf <= vg then vf else vg in
      let f0 = if vf = v then m.lo_.(f) else f
      and f1 = if vf = v then m.hi_.(f) else f in
      let g0 = if vg = v then m.lo_.(g) else g
      and g1 = if vg = v then m.hi_.(g) else g in
      let r = mk m v (band m f0 g0) (band m f1 g1) in
      cache_store m f g op_and r;
      r
    end
  end

let rec bor m f g =
  if f = g then f
  else if f = 1 || g = 1 then 1
  else if f = 0 then g
  else if g = 0 then f
  else begin
    let f, g = if f <= g then (f, g) else (g, f) in
    let r = cache_find m f g op_or in
    if r >= 0 then r
    else begin
      let vf = m.var_.(f) and vg = m.var_.(g) in
      let v = if vf <= vg then vf else vg in
      let f0 = if vf = v then m.lo_.(f) else f
      and f1 = if vf = v then m.hi_.(f) else f in
      let g0 = if vg = v then m.lo_.(g) else g
      and g1 = if vg = v then m.hi_.(g) else g in
      let r = mk m v (bor m f0 g0) (bor m f1 g1) in
      cache_store m f g op_or r;
      r
    end
  end

let rec bxor m f g =
  if f = g then 0
  else if f = 0 then g
  else if g = 0 then f
  else if f = 1 && g = 1 then 0
  else begin
    let f, g = if f <= g then (f, g) else (g, f) in
    if f = 1 then bnot m g
    else begin
      let r = cache_find m f g op_xor in
      if r >= 0 then r
      else begin
        let vf = m.var_.(f) and vg = m.var_.(g) in
        let v = if vf <= vg then vf else vg in
        let f0 = if vf = v then m.lo_.(f) else f
        and f1 = if vf = v then m.hi_.(f) else f in
        let g0 = if vg = v then m.lo_.(g) else g
        and g1 = if vg = v then m.hi_.(g) else g in
        let r = mk m v (bxor m f0 g0) (bxor m f1 g1) in
        cache_store m f g op_xor r;
        r
      end
    end
  end

and bnot m f =
  if f = 0 then 1
  else if f = 1 then 0
  else begin
    let r = cache_find m f f op_not in
    if r >= 0 then r
    else begin
      let v = m.var_.(f) in
      let r = mk m v (bnot m m.lo_.(f)) (bnot m m.hi_.(f)) in
      cache_store m f f op_not r;
      r
    end
  end

let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else if g = 0 && h = 1 then bnot m f
  else begin
    let r = cache_find m f g h in
    if r >= 0 then r
    else begin
      let vf = m.var_.(f) and vg = m.var_.(g) and vh = m.var_.(h) in
      let v = min vf (min vg vh) in
      let f0 = if vf = v then m.lo_.(f) else f
      and f1 = if vf = v then m.hi_.(f) else f in
      let g0 = if vg = v then m.lo_.(g) else g
      and g1 = if vg = v then m.hi_.(g) else g in
      let h0 = if vh = v then m.lo_.(h) else h
      and h1 = if vh = v then m.hi_.(h) else h in
      let r = mk m v (ite m f0 g0 h0) (ite m f1 g1 h1) in
      cache_store m f g h r;
      r
    end
  end

let imp m f g = bor m (bnot m f) g

(* ¬g is materialized, as [ite] needs it: the hazard check's node count,
   printed in its certificate text, depends on that allocation. *)
let xor m f g = ite m f (bnot m g) g
let conj m ns = List.fold_left (band m) 1 ns
let disj m ns = List.fold_left (bor m) 0 ns

let rec restrict m f ~var:v ~value =
  if f < 2 then f
  else begin
    let vf = m.var_.(f) in
    if vf > v then f
    else if vf = v then if value then m.hi_.(f) else m.lo_.(f)
    else begin
      let k1 = (2 * v) + Bool.to_int value in
      let r = cache_find m f k1 op_restrict in
      if r >= 0 then r
      else begin
        let r =
          mk m vf
            (restrict m m.lo_.(f) ~var:v ~value)
            (restrict m m.hi_.(f) ~var:v ~value)
        in
        cache_store m f k1 op_restrict r;
        r
      end
    end
  end

(* Existential quantification over a positive cube of the variables,
   cached on the (function, cube) pair. *)
let exists m vars f =
  let cube =
    List.fold_left
      (fun acc v ->
        if v < 0 then invalid_arg "Bdd.exists: negative variable";
        band m acc (var m v))
      1
      (List.sort_uniq Int.compare vars)
  in
  let rec ex f cube =
    if cube = 1 || f < 2 then f
    else begin
      let vf = m.var_.(f) and vc = m.var_.(cube) in
      if vc < vf then ex f m.hi_.(cube)
      else begin
        let r = cache_find m f cube op_exists in
        if r >= 0 then r
        else begin
          let r =
            if vf < vc then mk m vf (ex m.lo_.(f) cube) (ex m.hi_.(f) cube)
            else bor m (ex m.lo_.(f) m.hi_.(cube)) (ex m.hi_.(f) m.hi_.(cube))
          in
          cache_store m f cube op_exists r;
          r
        end
      end
    end
  in
  ex f cube

(* Fused relational product: existential quantification pushed through
   the conjunction in a single recursion, so the product f ∧ g is never
   materialized.  This is the inner loop of symbolic image computation,
   where f is a state set and g a (clustered) transition relation; the
   quantified intermediate would often dwarf both operands. *)
let and_exists m vars f g =
  let cube =
    List.fold_left
      (fun acc v ->
        if v < 0 then invalid_arg "Bdd.and_exists: negative variable";
        band m acc (var m v))
      1
      (List.sort_uniq Int.compare vars)
  in
  let rec ax f g cube =
    if f = 0 || g = 0 then 0
    else if cube = 1 then band m f g
    else if f = 1 && g = 1 then 1
    else begin
      let f, g = if f <= g then (f, g) else (g, f) in
      let r = cache_find m f g (op_and_exists_base - cube) in
      if r >= 0 then r
      else begin
        let vf = m.var_.(f) and vg = m.var_.(g) and vc = m.var_.(cube) in
        let v = if vf <= vg then vf else vg in
        let r =
          if vc < v then ax f g m.hi_.(cube)
          else begin
            let f0 = if vf = v then m.lo_.(f) else f
            and f1 = if vf = v then m.hi_.(f) else f in
            let g0 = if vg = v then m.lo_.(g) else g
            and g1 = if vg = v then m.hi_.(g) else g in
            if vc = v then begin
              (* quantified level: disjoin the cofactors, short-cutting
                 when the low half already covers everything *)
              let r0 = ax f0 g0 m.hi_.(cube) in
              if r0 = 1 then 1 else bor m r0 (ax f1 g1 m.hi_.(cube))
            end
            else mk m v (ax f0 g0 cube) (ax f1 g1 cube)
          end
        in
        cache_store m f g (op_and_exists_base - cube) r;
        r
      end
    end
  in
  ax f g cube

(* ---------------- structural access / renaming ---------------- *)

let top_var m f = if f < 2 then max_int else m.var_.(f)
let low m f = if f < 2 then invalid_arg "Bdd.low: constant node" else m.lo_.(f)

let high m f =
  if f < 2 then invalid_arg "Bdd.high: constant node" else m.hi_.(f)

(* Rename every odd variable 2p+1 to its even partner 2p.  Under the
   interleaved current/next variable convention this folds a next-state
   function back onto the current-state rail.  The caller guarantees the
   even partner of every odd variable is absent (image computation
   quantifies the current-state variables first), which makes the
   renaming order-preserving, so a single structural pass rebuilt
   through [mk] stays canonical. *)
let unprime m f =
  let memo = Hashtbl.create 64 in
  let rec go u =
    if u < 2 then u
    else
      match Hashtbl.find_opt memo u with
      | Some r -> r
      | None ->
        let v = m.var_.(u) in
        let v' = if v land 1 = 1 then v - 1 else v in
        let r = mk m v' (go m.lo_.(u)) (go m.hi_.(u)) in
        Hashtbl.add memo u r;
        r
  in
  go f

(* ---------------- observers ---------------- *)

let is_true f = f = 1
let is_false f = f = 0
let equal (a : node) (b : node) = a = b
let index (f : node) : int = f
let n_nodes m = m.n - 2

type stats = {
  nodes : int;
  unique_lookups : int;
  unique_hits : int;
  unique_hit_rate : float;
  cache_lookups : int;
  cache_hits : int;
  cache_hit_rate : float;
}

let stats m =
  let rate hits total =
    if total = 0 then 0.0 else float_of_int hits /. float_of_int total
  in
  {
    nodes = m.n - 2;
    unique_lookups = m.s_unique_lookups;
    unique_hits = m.s_unique_hits;
    unique_hit_rate = rate m.s_unique_hits m.s_unique_lookups;
    cache_lookups = m.s_cache_lookups;
    cache_hits = m.s_cache_hits;
    cache_hit_rate = rate m.s_cache_hits m.s_cache_lookups;
  }

let size m f =
  if f < 2 then 0
  else begin
    let seen = Hashtbl.create 64 in
    let rec go u =
      if u >= 2 && not (Hashtbl.mem seen u) then begin
        Hashtbl.add seen u ();
        go m.lo_.(u);
        go m.hi_.(u)
      end
    in
    go f;
    Hashtbl.length seen
  end

let any_sat m f =
  let rec go acc u =
    if u = 1 then Some (List.rev acc)
    else if u = 0 then None
    else begin
      let v = m.var_.(u) in
      match go ((v, false) :: acc) m.lo_.(u) with
      | Some path -> Some path
      | None -> go ((v, true) :: acc) m.hi_.(u)
    end
  in
  go [] f

let sat_count m ~n_vars f =
  let memo = Hashtbl.create 64 in
  (* models of the sub-bdd over variables >= v *)
  let rec go v u =
    if v >= n_vars then if u = 1 then 1.0 else 0.0
    else if u = 0 then 0.0
    else if u = 1 then 2.0 ** float_of_int (n_vars - v)
    else begin
      let vu = m.var_.(u) in
      if vu > v then 2.0 *. go (v + 1) u
      else
        match Hashtbl.find_opt memo u with
        | Some c -> c
        | None ->
          let c = go (v + 1) m.lo_.(u) +. go (v + 1) m.hi_.(u) in
          Hashtbl.add memo u c;
          c
    end
  in
  go 0 f

let rec eval m f assignment =
  if f < 2 then f = 1
  else begin
    let v = m.var_.(f) in
    let b = v < Array.length assignment && assignment.(v) in
    eval m (if b then m.hi_.(f) else m.lo_.(f)) assignment
  end

let rec eval_bits m f code =
  if f < 2 then f = 1
  else begin
    let v = m.var_.(f) in
    let b = v < Sys.int_size - 1 && code land (1 lsl v) <> 0 in
    eval_bits m (if b then m.hi_.(f) else m.lo_.(f)) code
  end
