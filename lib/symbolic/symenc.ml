(* Boolean encoding of a 1-safe net over the shared ROBDD engine.

   Place [p] sits at rank [level.(p)] of a depth-first walk over the
   flow relation and owns two BDD variables under the interleaved
   order: current-state variable [2 level.(p)] and next-state variable
   [2 level.(p) + 1].  The walk keeps the places of one concurrent
   component adjacent, which is what keeps a product of components
   linear in the number of components.  An order by place id would
   follow the source text instead (the canonical printer sorts lines),
   and make a parsed net's fixpoint up to 20x larger than the same net
   built by hand.
   Interleaving keeps each place's two rails adjacent, so the frame
   conditions p' <-> p of a transition-relation cluster stay linear in
   the cluster support, and folding an image back onto the
   current-state rail is the order-preserving renaming [Bdd.unprime].

   Markings double as native-int bitmasks over the net's own place ids
   (bit [p] set iff place [p] is marked), which is what the
   canonical-enumeration replay walks instead of allocating marking
   arrays: firing is two logical ops, and enabling is one subset test.
   The level lives only between the masks and the BDD variables, so the
   replay and its edge buffer never see it. *)

type t = {
  net : Petri.t;
  n_places : int;
  n_transitions : int;
  level : int array; (* place -> rank in the variable order *)
  pre_mask : int array; (* bit p set iff place p is a fanin of t *)
  post_mask : int array; (* bit p set iff place p is a fanout of t *)
  support : int list array; (* pre ∪ post of t, increasing *)
  init_mask : int;
}

let cur_var enc p = 2 * enc.level.(p)
let nxt_var enc p = (2 * enc.level.(p)) + 1

(* One bit per place must fit a native int alongside the sign bit; 62
   matches the visible-signal cap of [Sg.make], so wider nets are not a
   practical loss — they fall back to the explicit builder. *)
let max_places = 62

let unsupported net =
  let np = Petri.n_places net in
  if np > max_places then
    Some
      (Printf.sprintf "%d places exceed the %d-place mask encoding" np
         max_places)
  else if not (Marking.is_safe (Petri.initial_marking net)) then
    Some "initial marking is not 1-safe"
  else None

let mask_of_places ps = List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 ps

(* Preorder ranks of a depth-first walk over the flow relation: place
   -> the transitions consuming from it -> their fanout places, with
   each unvisited place a new root in id order.  The recursion depth is
   bounded by [max_places]. *)
let structural_levels net =
  let level = Array.make (Petri.n_places net) (-1) and next = ref 0 in
  let rec visit p =
    if level.(p) < 0 then begin
      level.(p) <- !next;
      incr next;
      List.iter
        (fun t -> List.iter visit (Petri.post net t))
        (Petri.place_post net p)
    end
  in
  Array.iteri (fun p _ -> visit p) level;
  level

let make net =
  (match unsupported net with
  | Some reason -> invalid_arg ("Symenc.make: " ^ reason)
  | None -> ());
  let np = Petri.n_places net and nt = Petri.n_transitions net in
  let pre_mask = Array.init nt (fun t -> mask_of_places (Petri.pre net t)) in
  let post_mask = Array.init nt (fun t -> mask_of_places (Petri.post net t)) in
  let support =
    Array.init nt (fun t ->
        List.sort_uniq Int.compare (Petri.pre net t @ Petri.post net t))
  in
  let m0 = Petri.initial_marking net in
  let init_mask = ref 0 in
  for p = 0 to np - 1 do
    if Marking.tokens m0 p > 0 then init_mask := !init_mask lor (1 lsl p)
  done;
  {
    net;
    n_places = np;
    n_transitions = nt;
    level = structural_levels net;
    pre_mask;
    post_mask;
    support;
    init_mask = !init_mask;
  }

(* The full current-state minterm of one marking, built bottom-up by
   level so every [band] step is constant-time. *)
let marking_bdd mgr enc mask =
  let at_level = Array.make enc.n_places 0 in
  Array.iteri (fun p l -> at_level.(l) <- p) enc.level;
  let f = ref Bdd.bdd_true in
  for l = enc.n_places - 1 downto 0 do
    let p = at_level.(l) in
    let v =
      if mask land (1 lsl p) <> 0 then Bdd.var mgr (cur_var enc p)
      else Bdd.nvar mgr (cur_var enc p)
    in
    f := Bdd.band mgr v !f
  done;
  !f
