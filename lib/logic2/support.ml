let project ~vars m =
  let r = ref 0 in
  List.iteri (fun i v -> if m land (1 lsl v) <> 0 then r := !r lor (1 lsl i)) vars;
  !r

let rec first_overlap ~onset ~offset =
  match (onset, offset) with
  | x :: on', y :: off' ->
    if x = y then Some x
    else if x < y then first_overlap ~onset:on' ~offset
    else first_overlap ~onset ~offset:off'
  | [], _ | _, [] -> None

(* Two codes project equally onto [vars] exactly when they agree on the
   bits of [mask_of vars], so every test below compares masked codes
   and none re-projects them. *)
let mask_of vars = List.fold_left (fun acc v -> acc lor (1 lsl v)) 0 vars

let disjoint_under mask ~onset ~offset =
  let tbl = Hashtbl.create (List.length onset) in
  List.iter (fun m -> Hashtbl.replace tbl (m land mask) ()) onset;
  not (List.exists (fun m -> Hashtbl.mem tbl (m land mask)) offset)

let sufficient ~vars ~onset ~offset = disjoint_under (mask_of vars) ~onset ~offset

(* A set of codes: [a.(0 .. n-1)], sorted and duplicate-free, with a
   spare buffer of the same length to rebuild it into. *)
type codes = { mutable a : int array; mutable n : int; mutable spare : int array }

let codes_of mask l =
  let a = Array.of_list (List.sort_uniq Int.compare (List.map (( land ) mask) l)) in
  { a; n = Array.length a; spare = Array.make (Array.length a) 0 }

let mem s x =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let y = s.a.(mid) in
    y = x || if y < x then go (mid + 1) hi else go lo mid
  in
  go 0 s.n

(* Clear [bit] in every code.  The codes without it keep their order, as
   do the codes with it once cleared, so one merge of the two runs
   rebuilds the set sorted and duplicate-free. *)
let drop_bit s bit =
  let a = s.a and n = s.n and out = s.spare in
  let rec next_with want i =
    if i < n && (a.(i) land bit <> 0) <> want then next_with want (i + 1) else i
  in
  let k = ref 0 in
  let emit x =
    if !k = 0 || out.(!k - 1) <> x then begin
      out.(!k) <- x;
      incr k
    end
  in
  let rec merge i j =
    if i < n && (j >= n || a.(i) <= a.(j) lxor bit) then begin
      emit a.(i);
      merge (next_with false (i + 1)) j
    end
    else if j < n then begin
      emit (a.(j) lxor bit);
      merge i (next_with true (j + 1))
    end
  in
  merge (next_with false 0) (next_with true 0);
  s.spare <- a;
  s.a <- out;
  s.n <- !k

(* Dropping a variable only merges codes, so each drop is tested on the
   sets already deduplicated under the current support, which shrink as
   it does.  Those sets are disjoint, so dropping [v] merges an on-code
   with an off-code exactly when the two differ in bit [v] alone: one
   lookup per off-code decides the drop. *)
let reduce ~width ~onset ~offset =
  let full = (1 lsl width) - 1 in
  let on = codes_of full onset and off = codes_of full offset in
  (* [collides bit]: some off-code differs from an on-code in [bit] alone
     (in no bit at all when [bit] is 0: the sets overlap) *)
  let collides bit =
    let rec go i = i < off.n && (mem on (off.a.(i) lxor bit) || go (i + 1)) in
    go 0
  in
  let kept = Array.make width true in
  if not (collides 0) then
    for v = width - 1 downto 0 do
      let bit = 1 lsl v in
      if not (collides bit) then begin
        kept.(v) <- false;
        drop_bit on bit;
        drop_bit off bit
      end
    done;
  List.filter (fun v -> kept.(v)) (List.init width Fun.id)

let collisions mask ~onset ~offset =
  let tbl = Hashtbl.create (List.length onset) in
  List.iter
    (fun m ->
      let k = m land mask in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    onset;
  List.fold_left
    (fun acc m ->
      acc + Option.value (Hashtbl.find_opt tbl (m land mask)) ~default:0)
    0 offset

let grow ~width ~vars ~onset ~offset =
  let full = List.init width Fun.id in
  if not (disjoint_under (mask_of full) ~onset ~offset) then
    invalid_arg "Support.grow: on-set and off-set intersect";
  let rec go vars mask =
    if disjoint_under mask ~onset ~offset then vars
    else begin
      let candidates = List.filter (fun v -> not (List.mem v vars)) full in
      let best =
        List.fold_left
          (fun (bv, bc) v ->
            let c = collisions (mask lor (1 lsl v)) ~onset ~offset in
            if c < bc then (v, c) else (bv, bc))
          (-1, max_int) candidates
      in
      match best with
      | -1, _ -> assert false
      | v, _ -> go (List.sort Int.compare (v :: vars)) (mask lor (1 lsl v))
    end
  in
  let vars = List.sort_uniq Int.compare vars in
  go vars (mask_of vars)
