(* Partitioned transition relation.

   One conjunct per transition — enabling over the current-state rail,
   updates and frame conditions over the next-state rail of its
   cluster's support — disjoined into clusters grown greedily by
   support overlap up to a size cap.  A monolithic relation conjoins
   frame conditions for *every* place into *every* transition, which is
   exactly the blowup partitioned representations avoid: a cluster only
   frames the places its members can touch, and places outside the
   cluster support are never mentioned at all (the image computation
   leaves them untouched by construction).

   The image of a state set is the disjunction over clusters of the
   fused relational product [Bdd.and_exists] followed by the
   next-to-current renaming — the intermediate product S ∧ R_C is never
   materialized. *)

type cluster = {
  members : int list; (* transition ids, increasing *)
  support : int list; (* union of member supports, increasing *)
  cur_vars : int list; (* current-state variables of [support] *)
  rel : Bdd.node;
}

type t = { mgr : Bdd.manager; clusters : cluster array }

let default_cluster_max = 12

(* sorted-list overlap and union, no intermediate sets *)
let rec overlap a b =
  match (a, b) with
  | [], _ | _, [] -> 0
  | x :: a', y :: b' ->
    if x = y then 1 + overlap a' b'
    else if x < y then overlap a' b
    else overlap a b'

let rec union a b =
  match (a, b) with
  | [], r | r, [] -> r
  | x :: a', y :: b' ->
    if x = y then x :: union a' b'
    else if x < y then x :: union a' b
    else y :: union a b'

(* The lowest level in a transition's support: where it sits in the
   variable order.  A transition with no places sorts last. *)
let top_level enc t =
  List.fold_left
    (fun acc p -> min acc enc.Symenc.level.(p))
    max_int enc.Symenc.support.(t)

(* Greedy, deterministic: transitions by the lowest level of their
   support (a stable sort, so ties keep id order), which makes clusters
   follow the variable order's locality rather than the id order; each
   joins the earliest existing cluster of maximal positive support
   overlap whose merged support stays within [cluster_max], else opens
   a new one. *)
let plan enc ~cluster_max =
  let open Symenc in
  let schedule = Array.init enc.n_transitions Fun.id in
  Array.stable_sort
    (fun a b -> Int.compare (top_level enc a) (top_level enc b))
    schedule;
  let clusters = ref [] (* (members, support), creation order *) in
  for k = 0 to enc.n_transitions - 1 do
    let t = schedule.(k) in
    let sup_t = enc.support.(t) in
    let size_t = List.length sup_t in
    let best = ref (-1) and best_ov = ref 0 in
    List.iteri
      (fun i (_, sup) ->
        let ov = overlap sup_t sup in
        if ov > !best_ov && List.length sup + size_t - ov <= cluster_max then begin
          best := i;
          best_ov := ov
        end)
      !clusters;
    if !best < 0 then clusters := !clusters @ [ ([ t ], sup_t) ]
    else
      clusters :=
        List.mapi
          (fun i (ms, sup) ->
            if i = !best then (t :: ms, union sup_t sup) else (ms, sup))
          !clusters
  done;
  List.map (fun (ms, sup) -> (List.sort Int.compare ms, sup)) !clusters

let iff mgr a b = Bdd.bnot mgr (Bdd.bxor mgr a b)

(* Conjunct of one transition over its cluster's support: enabling on
   touched fanins, forced next-state values on touched places, frame
   (p' <-> p) on the rest of the support. *)
let transition_rel mgr enc t support =
  let open Symenc in
  let pre_m = enc.pre_mask.(t) and post_m = enc.post_mask.(t) in
  let factors =
    List.map
      (fun p ->
        let bit = 1 lsl p in
        let in_pre = pre_m land bit <> 0 and in_post = post_m land bit <> 0 in
        if in_pre || in_post then begin
          let nxt =
            if in_post then Bdd.var mgr (nxt_var enc p)
            else Bdd.nvar mgr (nxt_var enc p)
          in
          if in_pre then Bdd.band mgr (Bdd.var mgr (cur_var enc p)) nxt
          else nxt
        end
        else
          iff mgr (Bdd.var mgr (cur_var enc p)) (Bdd.var mgr (nxt_var enc p)))
      support
  in
  Bdd.conj mgr factors

let build mgr enc =
  let groups = plan enc ~cluster_max:default_cluster_max in
  let clusters =
    List.map
      (fun (members, support) ->
        let rel =
          Bdd.disj mgr
            (List.map (fun t -> transition_rel mgr enc t support) members)
        in
        {
          members;
          support;
          cur_vars = List.map (Symenc.cur_var enc) support;
          rel;
        })
      groups
  in
  { mgr; clusters = Array.of_list clusters }

let n_clusters r = Array.length r.clusters

(* Successors of [s] under every cluster, folded back onto the
   current-state rail.  [and_exists] quantifies exactly the cluster's
   current-state variables, so the renaming precondition of
   [Bdd.unprime] holds by construction. *)
let image r s =
  Array.fold_left
    (fun acc c ->
      let nxt = Bdd.and_exists r.mgr c.cur_vars s c.rel in
      Bdd.bor r.mgr acc (Bdd.unprime r.mgr nxt))
    Bdd.bdd_false r.clusters
