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

(* Every pass hashes masked codes into one open-addressing table
   ({!Sg.Slots}) under an owner of its own, so a pass starts on an
   empty table without clearing it, and the distinct codes it keeps go
   to [on] or [off].  The table and buffers grow to the largest sets
   seen, and are kept for the next call. *)
type scratch = {
  mutable table : Sg.Slots.t;
  mutable room : int;
  mutable owner : int;
  mutable on : int array;
  mutable off : int array;
}

let scratch () =
  { table = Sg.Slots.create 0; room = 0; owner = 0; on = [||]; off = [||] }

(* room for [onset] and [offset] together *)
let fit s ~onset ~offset =
  let need = Array.length onset + Array.length offset in
  if s.room < need then begin
    s.table <- Sg.Slots.create need;
    s.room <- need;
    s.on <- Array.make need 0;
    s.off <- Array.make need 0
  end

let fresh s =
  s.owner <- s.owner + 1;
  s.owner

let mem s x = Sg.Slots.find s.table ~owner:s.owner x >= 0

(* The distinct [x land mask] of [src.(0 .. len-1)], written to [dst]
   (which may be [src]) from index 0; returns their count.  The table
   keeps them, with value 0, until the next pass. *)
let distinct s mask src len dst =
  let owner = fresh s in
  let k = ref 0 in
  for i = 0 to len - 1 do
    let x = src.(i) land mask in
    let h = Sg.Slots.slot s.table ~owner x in
    if Sg.Slots.get s.table h < 0 then begin
      Sg.Slots.set s.table h 0;
      dst.(!k) <- x;
      incr k
    end
  done;
  !k

(* The distinct masked on-codes into [s.on] and off-codes into [s.off],
   returning their counts, or [None] when an off-code meets an on-code
   (off-codes are marked 1 in the table, on-codes 0). *)
let split s mask ~onset ~offset =
  let n_on = distinct s mask onset (Array.length onset) s.on in
  let rec go i k =
    if i = Array.length offset then Some (n_on, k)
    else
      let x = offset.(i) land mask in
      let h = Sg.Slots.slot s.table ~owner:s.owner x in
      match Sg.Slots.get s.table h with
      | 0 -> None
      | -1 ->
        Sg.Slots.set s.table h 1;
        s.off.(k) <- x;
        go (i + 1) (k + 1)
      | _ -> go (i + 1) k
  in
  go 0 0

let sufficient ~vars ~onset ~offset =
  let s = scratch () in
  fit s ~onset ~offset;
  Option.is_some (split s (mask_of vars) ~onset ~offset)

(* [project] with [vars] as an array: bit [i] of the result is bit
   [vars.(i)] of [x] *)
let pack vars x =
  let r = ref 0 in
  for i = 0 to Array.length vars - 1 do
    if x land (1 lsl vars.(i)) <> 0 then r := !r lor (1 lsl i)
  done;
  !r

let project_sets s ~vars ~onset ~offset =
  fit s ~onset ~offset;
  let bits = Array.of_list vars in
  Option.map
    (fun (n_on, n_off) ->
      let proj a n =
        let p = Array.init n (fun i -> pack bits a.(i)) in
        Array.sort Int.compare p;
        Array.to_list p
      in
      (proj s.on n_on, proj s.off n_off))
    (split s (mask_of vars) ~onset ~offset)

(* Dropping a variable only merges codes, so each drop is tested on the
   sets already deduplicated under the current support, which shrink as
   it does.  Those sets are disjoint, so dropping [v] merges an on-code
   with an off-code exactly when the two differ in bit [v] alone: one
   lookup per off-code decides the drop. *)
let reduce s ~width ~onset ~offset =
  fit s ~onset ~offset;
  let full = (1 lsl width) - 1 in
  let n_off = ref (distinct s full offset (Array.length offset) s.off) in
  (* the table holds the on-codes from here on *)
  let n_on = ref (distinct s full onset (Array.length onset) s.on) in
  (* [collides bit]: some off-code differs from an on-code in [bit] alone
     (in no bit at all when [bit] is 0: the sets overlap) *)
  let collides bit =
    let rec go i = i < !n_off && (mem s (s.off.(i) lxor bit) || go (i + 1)) in
    go 0
  in
  let kept = Array.make width true in
  if not (collides 0) then
    for v = width - 1 downto 0 do
      let bit = 1 lsl v in
      if not (collides bit) then begin
        kept.(v) <- false;
        n_off := distinct s (lnot bit) s.off !n_off s.off;
        n_on := distinct s (lnot bit) s.on !n_on s.on
      end
    done;
  List.filter (fun v -> kept.(v)) (List.init width Fun.id)

(* The on/off pairs that agree under [mask], counted with multiplicity:
   the table counts each masked on-code, and each off-code adds its
   key's count.  Zero exactly when the projections are disjoint. *)
let collisions s mask ~onset ~offset =
  let owner = fresh s in
  Array.iter
    (fun x ->
      let h = Sg.Slots.slot s.table ~owner (x land mask) in
      Sg.Slots.set s.table h (max 0 (Sg.Slots.get s.table h) + 1))
    onset;
  Array.fold_left
    (fun acc x ->
      let h = Sg.Slots.find s.table ~owner (x land mask) in
      if h < 0 then acc else acc + Sg.Slots.get s.table h)
    0 offset

let grow s ~width ~vars ~onset ~offset =
  fit s ~onset ~offset;
  let full = List.init width Fun.id in
  if collisions s (mask_of full) ~onset ~offset > 0 then
    invalid_arg "Support.grow: on-set and off-set intersect";
  let rec go vars mask c =
    if c = 0 then vars
    else begin
      let candidates = List.filter (fun v -> not (List.mem v vars)) full in
      let best =
        List.fold_left
          (fun (bv, bc) v ->
            let c = collisions s (mask lor (1 lsl v)) ~onset ~offset in
            if c < bc then (v, c) else (bv, bc))
          (-1, max_int) candidates
      in
      match best with
      | -1, _ -> assert false
      | v, c ->
        go (List.sort Int.compare (v :: vars)) (mask lor (1 lsl v)) c
    end
  in
  let vars = List.sort_uniq Int.compare vars in
  let mask = mask_of vars in
  go vars mask (collisions s mask ~onset ~offset)
