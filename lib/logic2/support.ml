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

let sufficient ~vars ~onset ~offset =
  let tbl = Hashtbl.create (List.length onset) in
  List.iter (fun m -> Hashtbl.replace tbl (project ~vars m) ()) onset;
  not (List.exists (fun m -> Hashtbl.mem tbl (project ~vars m)) offset)

let reduce ~width ~onset ~offset =
  let vars = ref (List.init width Fun.id) in
  for v = width - 1 downto 0 do
    let without = List.filter (( <> ) v) !vars in
    if sufficient ~vars:without ~onset ~offset then vars := without
  done;
  !vars

let collisions ~vars ~onset ~offset =
  let tbl = Hashtbl.create (List.length onset) in
  List.iter
    (fun m ->
      let k = project ~vars m in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    onset;
  List.fold_left
    (fun acc m ->
      acc + Option.value (Hashtbl.find_opt tbl (project ~vars m)) ~default:0)
    0 offset

let grow ~width ~vars ~onset ~offset =
  let full = List.init width Fun.id in
  if not (sufficient ~vars:full ~onset ~offset) then
    invalid_arg "Support.grow: on-set and off-set intersect";
  let rec go vars =
    if sufficient ~vars ~onset ~offset then List.sort_uniq Int.compare vars
    else begin
      let candidates = List.filter (fun v -> not (List.mem v vars)) full in
      let best =
        List.fold_left
          (fun (bv, bc) v ->
            let c = collisions ~vars:(List.sort Int.compare (v :: vars)) ~onset ~offset in
            if c < bc then (v, c) else (bv, bc))
          (-1, max_int) candidates
      in
      match best with
      | -1, _ -> assert false
      | v, _ -> go (List.sort Int.compare (v :: vars))
    end
  in
  go (List.sort_uniq Int.compare vars)
