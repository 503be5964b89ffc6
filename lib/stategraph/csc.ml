let classes_tbl sg =
  let tbl = Hashtbl.create (Sg.n_states sg) in
  for m = Sg.n_states sg - 1 downto 0 do
    let c = Sg.full_code sg m in
    let cur = Option.value (Hashtbl.find_opt tbl c) ~default:[] in
    Hashtbl.replace tbl c (m :: cur)
  done;
  tbl

let code_classes sg =
  let tbl = classes_tbl sg in
  Hashtbl.fold
    (fun _ members acc -> match members with [] | [ _ ] -> acc | ms -> ms :: acc)
    tbl []
  |> List.map (List.sort Int.compare)
  |> List.sort compare

(* Pairs of equal-code states whose [Sg.full_excitation_masks] differ;
   [visible_only] keeps only the pairs whose non-input visible
   excitation (the bits below the extras) agrees. *)
let mask_conflicts ~visible_only sg =
  let rise, fall = Sg.full_excitation_masks sg in
  let vis = (1 lsl Sg.n_signals sg) - 1 in
  let differ m m' = rise.(m) <> rise.(m') || fall.(m) <> fall.(m') in
  let same_visible m m' =
    (rise.(m) lxor rise.(m')) land vis = 0
    && (fall.(m) lxor fall.(m')) land vis = 0
  in
  let pairs = ref [] in
  List.iter
    (fun members ->
      let rec all_pairs = function
        | [] -> ()
        | m :: rest ->
          List.iter
            (fun m' ->
              if differ m m' && ((not visible_only) || same_visible m m') then
                pairs := (m, m') :: !pairs)
            rest;
          all_pairs rest
      in
      all_pairs members)
    (code_classes sg);
  List.sort compare !pairs

let conflict_pairs sg = mask_conflicts ~visible_only:false sg

(* [List.length (conflict_pairs sg)] without listing the pairs: all
   pairs of each code class, less the pairs that also agree on both
   excitation masks. *)
let n_conflicts sg =
  let rise, fall = Sg.full_excitation_masks sg in
  let by_code = Hashtbl.create 64 and by_masks = Hashtbl.create 64 in
  let bump tbl k =
    Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
  in
  for m = 0 to Sg.n_states sg - 1 do
    let c = Sg.full_code sg m in
    bump by_code c;
    bump by_masks (c, rise.(m), fall.(m))
  done;
  let pairs tbl = Hashtbl.fold (fun _ k acc -> acc + (k * (k - 1) / 2)) tbl 0 in
  pairs by_code - pairs by_masks

let output_conflict_pairs sg ~output =
  let pairs = ref [] in
  List.iter
    (fun members ->
      let vals = List.map (fun m -> (m, Sg.implied_value sg m output)) members in
      let rec all_pairs = function
        | [] -> ()
        | (m, v) :: rest ->
          List.iter (fun (m', v') -> if v <> v' then pairs := (m, m') :: !pairs) rest;
          all_pairs rest
      in
      all_pairs vals)
    (code_classes sg);
  List.sort compare !pairs

let n_output_conflicts sg ~output = List.length (output_conflict_pairs sg ~output)

let orphan_conflict_pairs sg = mask_conflicts ~visible_only:true sg

let max_usc sg =
  List.fold_left (fun acc c -> max acc (List.length c)) 1 (code_classes sg)

let lower_bound sg =
  let k = max_usc sg in
  let rec bits m acc = if m >= k then acc else bits (m * 2) (acc + 1) in
  if k <= 1 then 0 else bits 1 0

(* Equal-code states must agree on every excitation; comparing each
   state with the first of its code class decides that without listing
   pairs. *)
let csc_satisfied sg =
  let n = Sg.n_states sg in
  let rise, fall = Sg.full_excitation_masks sg in
  let first = Hashtbl.create n in
  let rec go m =
    m >= n
    ||
    let c = Sg.full_code sg m in
    match Hashtbl.find_opt first c with
    | None ->
      Hashtbl.add first c m;
      go (m + 1)
    | Some m0 -> rise.(m0) = rise.(m) && fall.(m0) = fall.(m) && go (m + 1)
  in
  go 0

let usc_satisfied sg = code_classes sg = []

let pp_summary ppf sg =
  Format.fprintf ppf
    "%s: %d states, %d same-code classes (max %d), %d CSC conflict pairs"
    (Sg.name sg) (Sg.n_states sg)
    (List.length (code_classes sg))
    (max_usc sg) (n_conflicts sg)
