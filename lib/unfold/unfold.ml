(* Complete-finite-prefix unfolding (McMillan'92 cutoffs, ERV'96 total
   order).  The prefix is an occurrence net grown event by event:
   conditions are tokens-with-history, events are transition
   occurrences, and the concurrency relation is maintained as a sorted
   co-list per condition so possible extensions are found by matching a
   transition's preset against co-sets instead of exploring markings.
   Everything is id-indexed and append-only; nothing is ever removed,
   which is what makes the parallel possible-extension fan-out safe. *)

(* Growable sorted int vector.  Pushes must keep ascending order; the
   construction discipline guarantees it (new condition ids are always
   the largest so far). *)
module Iv = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 8 0; n = 0 }
  let length v = v.n
  let get v i = v.a.(i)

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let mem_sorted v x =
    let lo = ref 0 and hi = ref v.n in
    while !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      if v.a.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo < v.n && v.a.(!lo) = x

  let to_array v = Array.sub v.a 0 v.n
end

(* Growable generic vector. *)
module Ga = struct
  type 'a t = { mutable a : 'a array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let get g i = g.a.(i)

  let push g x =
    if g.n = Array.length g.a then begin
      let b = Array.make (max 16 (2 * g.n)) x in
      Array.blit g.a 0 b 0 g.n;
      g.a <- b
    end;
    g.a.(g.n) <- x;
    g.n <- g.n + 1
end

type t = {
  u_net : Petri.t;
  tr_pre : int array array;
  tr_post : int array array;
  (* conditions *)
  c_place : Iv.t;
  c_producer : Iv.t; (* producing event id; -1 for initial conditions *)
  c_co : Iv.t Ga.t; (* sorted ids of conditions concurrent with i *)
  by_place : Iv.t array;
  (* events *)
  e_trans : Iv.t;
  e_depth : Iv.t;
  e_companion : Iv.t; (* cutoff companion event; -1 = initial marking;
                         -2 = not a cutoff *)
  e_pre : int array Ga.t;
  e_post : int array Ga.t;
  e_config : int array Ga.t; (* local configuration, sorted, self included *)
  mutable cutoffs : int;
  mutable is_complete : bool;
}

let net u = u.u_net
let complete u = u.is_complete
let n_events u = Iv.length u.e_trans
let n_cutoffs u = u.cutoffs
let n_noncutoff u = Iv.length u.e_trans - u.cutoffs
let n_conditions u = Iv.length u.c_place
let is_cutoff u e = Iv.get u.e_companion e <> -2

(* ---- sorted-array set operations ------------------------------------ *)

let merge_union a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then (out.(!k) <- x; incr i)
    else if y < x then (out.(!k) <- y; incr j)
    else (out.(!k) <- x; incr i; incr j);
    incr k
  done;
  while !i < la do out.(!k) <- a.(!i); incr i; incr k done;
  while !j < lb do out.(!k) <- b.(!j); incr j; incr k done;
  if !k = la + lb then out else Array.sub out 0 !k

(* Intersection of the co-lists of a preset: the conditions concurrent
   with every precondition of the new event. *)
let co_intersection u preset =
  let first = Ga.get u.c_co preset.(0) in
  let cur = ref (Iv.to_array first) in
  for i = 1 to Array.length preset - 1 do
    let v = Ga.get u.c_co preset.(i) in
    let a = !cur in
    let out = Array.make (Array.length a) 0 in
    let k = ref 0 in
    Array.iter (fun x -> if Iv.mem_sorted v x then (out.(!k) <- x; incr k)) a;
    cur := Array.sub out 0 !k
  done;
  !cur

(* ---- ERV order over possible extensions ----------------------------- *)

type pe = {
  p_trans : int;
  p_pre : int array; (* sorted condition ids *)
  p_config : int array; (* history events, sorted, new event excluded *)
  p_size : int; (* |p_config| + 1 *)
  p_depth : int; (* Foata depth of the new event *)
  p_parikh : int array; (* per-transition counts, new event included *)
  p_foata : int array array; (* per-depth-level Parikh, new event included *)
}

let cmp_int_array a b =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb in
  let rec go i =
    if i = n then compare la lb
    else
      let c = compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Size, Parikh lex, Foata-level lex (the ERV adequate total order on
   configurations), then (transition, preset) so that the queue order —
   hence the prefix — is canonical even between ERV-equivalent
   extensions. *)
let compare_pe a b =
  let c = compare a.p_size b.p_size in
  if c <> 0 then c
  else
    let c = cmp_int_array a.p_parikh b.p_parikh in
    if c <> 0 then c
    else
      let la = Array.length a.p_foata and lb = Array.length b.p_foata in
      let rec level i =
        if i = min la lb then compare la lb
        else
          let c = cmp_int_array a.p_foata.(i) b.p_foata.(i) in
          if c <> 0 then c else level (i + 1)
      in
      let c = level 0 in
      if c <> 0 then c
      else
        let c = compare a.p_trans b.p_trans in
        if c <> 0 then c else cmp_int_array a.p_pre b.p_pre

module Pq = Set.Make (struct
  type t = pe

  let compare = compare_pe
end)

(* ---- construction ---------------------------------------------------- *)

let add_cond u place producer =
  let id = Iv.length u.c_place in
  Iv.push u.c_place place;
  Iv.push u.c_producer producer;
  Ga.push u.c_co (Iv.create ());
  Iv.push u.by_place.(place) id;
  id

(* Build the possible extension for transition [t] with preset
   [b :: chosen]: its history is the union of the producers' local
   configurations, from which size / Parikh / Foata keys follow. *)
let make_pe u nt t preset =
  let config = ref [||] in
  Array.iter
    (fun c ->
      let producer = Iv.get u.c_producer c in
      if producer >= 0 then config := merge_union !config (Ga.get u.e_config producer))
    preset;
  let config = !config in
  let depth =
    1 + Array.fold_left (fun acc e -> max acc (Iv.get u.e_depth e)) 0 config
  in
  let parikh = Array.make nt 0 in
  let foata = Array.init depth (fun _ -> Array.make nt 0) in
  Array.iter
    (fun e ->
      let te = Iv.get u.e_trans e in
      parikh.(te) <- parikh.(te) + 1;
      let d = Iv.get u.e_depth e in
      foata.(d - 1).(te) <- foata.(d - 1).(te) + 1)
    config;
  parikh.(t) <- parikh.(t) + 1;
  foata.(depth - 1).(t) <- foata.(depth - 1).(t) + 1;
  {
    p_trans = t;
    p_pre = preset;
    p_config = config;
    p_size = Array.length config + 1;
    p_depth = depth;
    p_parikh = parikh;
    p_foata = foata;
  }

(* Enumerate the extensions anchored at condition [b] for transition
   [t]: match the remaining preset places against conditions of smaller
   id that are concurrent with [b] and pairwise concurrent with each
   other.  Anchoring at the maximal id generates every extension exactly
   once. *)
let candidates_at u nt b t =
  let pb = Iv.get u.c_place b in
  let pre = u.tr_pre.(t) in
  let skip = ref (-1) in
  (try
     Array.iteri (fun i p -> if p = pb && !skip < 0 then (skip := i; raise Exit)) pre
   with Exit -> ());
  if !skip < 0 then []
  else begin
    let remaining =
      Array.init
        (Array.length pre - 1)
        (fun i -> if i < !skip then pre.(i) else pre.(i + 1))
    in
    let cob = Ga.get u.c_co b in
    let nrem = Array.length remaining in
    let chosen = Array.make nrem 0 in
    let acc = ref [] in
    let rec fill i =
      if i = nrem then begin
        let preset = Array.make (nrem + 1) b in
        Array.blit chosen 0 preset 0 nrem;
        Array.sort compare preset;
        acc := make_pe u nt t preset :: !acc
      end
      else begin
        let p = remaining.(i) in
        let floor_id =
          (* duplicate places must pick strictly increasing condition
             ids, so a multiset match is found once *)
          if i > 0 && remaining.(i - 1) = p then chosen.(i - 1) else -1
        in
        let cands = u.by_place.(p) in
        for j = 0 to Iv.length cands - 1 do
          let c = Iv.get cands j in
          if
            c > floor_id && c < b
            && Iv.mem_sorted cob c
            && (let ok = ref true in
                for k = 0 to i - 1 do
                  if !ok && not (Iv.mem_sorted (Ga.get u.c_co chosen.(k)) c)
                  then ok := false
                done;
                !ok)
          then begin
            chosen.(i) <- c;
            fill (i + 1)
          end
        done
      end
    in
    fill 0;
    List.rev !acc
  end

let config_marking u m0_counts trans config =
  let counts = Array.copy m0_counts in
  let apply t =
    Array.iter (fun p -> counts.(p) <- counts.(p) - 1) u.tr_pre.(t);
    Array.iter (fun p -> counts.(p) <- counts.(p) + 1) u.tr_post.(t)
  in
  Array.iter (fun e -> apply (Iv.get u.e_trans e)) config;
  apply trans;
  Marking.of_array counts

(* The candidate extensions at every (new condition, consuming
   transition) pair, in condition then transition order. *)
let gen_extensions u nt new_conds =
  List.concat_map
    (fun b ->
      List.concat_map
        (fun t -> candidates_at u nt b t)
        (Petri.place_post u.u_net (Iv.get u.c_place b)))
    new_conds

(* Append the popped extension as an event.  If its local-configuration
   marking was already represented the event is a cutoff: its
   postconditions exist (for the certificate) but stay out of every
   co-list, so no extension is ever built on top of them. *)
let add_event u nt mtab m0_counts pe =
  let id = Iv.length u.e_trans in
  let config = Array.append pe.p_config [| id |] in
  let m = config_marking u m0_counts pe.p_trans pe.p_config in
  let key = Marking.pack m in
  let companion = Hashtbl.find_opt mtab key in
  (match companion with
  | Some _ -> ()
  | None -> Hashtbl.replace mtab key id);
  Iv.push u.e_trans pe.p_trans;
  Iv.push u.e_depth pe.p_depth;
  Ga.push u.e_pre pe.p_pre;
  Ga.push u.e_config config;
  (match companion with
  | Some comp ->
      Iv.push u.e_companion comp;
      u.cutoffs <- u.cutoffs + 1;
      let posts =
        Array.map (fun p -> add_cond u p id) u.tr_post.(pe.p_trans)
      in
      Ga.push u.e_post posts;
      []
  | None ->
      Iv.push u.e_companion (-2);
      let inter = co_intersection u pe.p_pre in
      let posts =
        Array.map (fun p -> add_cond u p id) u.tr_post.(pe.p_trans)
      in
      Ga.push u.e_post posts;
      (* co(new) = inter ∪ siblings; both parts arrive in ascending id
         order because the new conditions are the largest ids *)
      Array.iter
        (fun b ->
          let cob = Ga.get u.c_co b in
          Array.iter (fun d -> Iv.push cob d) inter;
          Array.iter (fun b' -> if b' <> b then Iv.push cob b') posts)
        posts;
      Array.iter
        (fun d ->
          let cod = Ga.get u.c_co d in
          Array.iter (fun b -> Iv.push cod b) posts)
        inter;
      gen_extensions u nt (Array.to_list posts))

let build ?(max_events = 2048) pnet =
  let np = Petri.n_places pnet and nt = Petri.n_transitions pnet in
  let u =
    {
      u_net = pnet;
      tr_pre =
        Array.init nt (fun t ->
            let a = Array.of_list (Petri.pre pnet t) in
            Array.sort compare a;
            a);
      tr_post =
        Array.init nt (fun t ->
            let a = Array.of_list (Petri.post pnet t) in
            Array.sort compare a;
            a);
      c_place = Iv.create ();
      c_producer = Iv.create ();
      c_co = Ga.create ();
      by_place = Array.init np (fun _ -> Iv.create ());
      e_trans = Iv.create ();
      e_depth = Iv.create ();
      e_companion = Iv.create ();
      e_pre = Ga.create ();
      e_post = Ga.create ();
      e_config = Ga.create ();
      cutoffs = 0;
      is_complete = false;
    }
  in
  let degenerate =
    (* a source transition can fire unboundedly often concurrently with
       itself: the net is not 1-safe and no finite prefix is complete *)
    Array.exists (fun a -> Array.length a = 0) u.tr_pre
  in
  let m0 = Petri.initial_marking pnet in
  let m0_counts = Marking.to_array m0 in
  if degenerate then u
  else begin
    let mtab = Hashtbl.create 1024 in
    Hashtbl.replace mtab (Marking.pack m0) (-1);
    for p = 0 to np - 1 do
      for _i = 1 to m0_counts.(p) do
        ignore (add_cond u p (-1))
      done
    done;
    let n0 = Iv.length u.c_place in
    for b = 0 to n0 - 1 do
      let cob = Ga.get u.c_co b in
      for d = 0 to n0 - 1 do
        if d <> b then Iv.push cob d
      done
    done;
    let init = gen_extensions u nt (List.init n0 (fun b -> b)) in
    let pq = ref (List.fold_left (fun s pe -> Pq.add pe s) Pq.empty init) in
    let truncated = ref false in
    while (not !truncated) && not (Pq.is_empty !pq) do
      let pe = Pq.min_elt !pq in
      pq := Pq.remove pe !pq;
      if Iv.length u.e_trans >= max_events then truncated := true
      else
        let fresh = add_event u nt mtab m0_counts pe in
        List.iter (fun p -> pq := Pq.add p !pq) fresh
    done;
    u.is_complete <- not !truncated;
    u
  end

(* ---- exact queries --------------------------------------------------- *)

(* A causality-respecting firing order of a set of events: Foata depth
   is monotone along causality, so depth-major (id-minor) works. *)
let linearize u config =
  let l = Array.to_list config in
  List.sort
    (fun a b ->
      let c = compare (Iv.get u.e_depth a) (Iv.get u.e_depth b) in
      if c <> 0 then c else compare a b)
    l

let unsafe_witness u =
  let found = ref None in
  let nconds = Iv.length u.c_place in
  let b = ref 0 in
  while !found = None && !b < nconds do
    let pb = Iv.get u.c_place !b in
    let cob = Ga.get u.c_co !b in
    let j = ref 0 in
    while !found = None && !j < Iv.length cob && Iv.get cob !j < !b do
      let c = Iv.get cob !j in
      if Iv.get u.c_place c = pb then begin
        let cfg_of x =
          let producer = Iv.get u.c_producer x in
          if producer < 0 then [||] else Ga.get u.e_config producer
        in
        let config = merge_union (cfg_of !b) (cfg_of c) in
        let fire =
          List.map (fun e -> Iv.get u.e_trans e) (linearize u config)
        in
        found := Some (pb, fire)
      end;
      incr j
    done;
    incr b
  done;
  !found

let coset_exists u places =
  let places = Array.of_list (List.sort compare places) in
  let n = Array.length places in
  if n = 0 then true
  else begin
    let chosen = Array.make n 0 in
    let rec fill i =
      i = n
      || begin
           let p = places.(i) in
           let floor_id =
             if i > 0 && places.(i - 1) = p then chosen.(i - 1) else -1
           in
           let cands = u.by_place.(p) in
           let ok = ref false in
           let j = ref 0 in
           while (not !ok) && !j < Iv.length cands do
             let c = Iv.get cands !j in
             incr j;
             if
               c > floor_id
               && (let pair = ref true in
                   for k = 0 to i - 1 do
                     if
                       !pair
                       && not (Iv.mem_sorted (Ga.get u.c_co chosen.(k)) c)
                     then pair := false
                   done;
                   !pair)
             then begin
               chosen.(i) <- c;
               if fill (i + 1) then ok := true
             end
           done;
           !ok
         end
    in
    fill 0
  end

let step_coenabled u t1 t2 =
  coset_exists u (Petri.pre u.u_net t1 @ Petri.pre u.u_net t2)

(* ---- certificate ------------------------------------------------------ *)

let fire_names u config =
  List.map
    (fun e -> Petri.transition_name u.u_net (Iv.get u.e_trans e))
    (linearize u config)

let cert_json u =
  let witness e =
    let comp = Iv.get u.e_companion e in
    Json.Obj
      [
        ("event", Json.int e);
        ("transition", Str (Petri.transition_name u.u_net (Iv.get u.e_trans e)));
        ("companion", Json.int comp);
        ("fire", Json.str_list (fire_names u (Ga.get u.e_config e)));
        ( "companion_fire",
          Json.str_list
            (fire_names u (if comp < 0 then [||] else Ga.get u.e_config comp)) );
      ]
  in
  Json.Obj
    [
      ("schema", Str "mpsyn-prefix/1");
      ("events", Json.int (n_events u));
      ("conditions", Json.int (n_conditions u));
      ("cutoffs", Json.int u.cutoffs);
      ("non_cutoff", Json.int (n_noncutoff u));
      ("complete", Bool u.is_complete);
      ( "cutoff_witnesses",
        List
          (List.init (n_events u) Fun.id
          |> List.filter (is_cutoff u)
          |> List.map witness) );
    ]
