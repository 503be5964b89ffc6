(* The states grouped by full code ({!Sg.group_by}): [head.(m)] is the
   least state with [m]'s code and [next.(m)] the next larger one. *)
let classes sg = Sg.group_by (Sg.n_states sg) (Sg.full_code sg)

let code_classes sg =
  let head, next = classes sg in
  let rec members m = if m < 0 then [] else m :: members next.(m) in
  let acc = ref [] in
  for m = Sg.n_states sg - 1 downto 0 do
    if head.(m) = m && next.(m) >= 0 then acc := members m :: !acc
  done;
  !acc

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

(* [List.length (conflict_pairs sg)] without listing the pairs: each
   state, taken in increasing order, conflicts with the earlier members
   of its code class less those with its excitation masks.  The first
   member of a class with given masks stands for them ([same.(r)] counts
   the members agreeing with [r]); a class's representatives are chained
   from its least member through [next_rep]. *)
let n_conflicts sg =
  let n = Sg.n_states sg in
  let rise, fall = Sg.full_excitation_masks sg in
  let head, _ = classes sg in
  let size = Array.make n 0 and same = Array.make n 0 in
  let next_rep = Array.make n (-1) in
  let rec rep r m =
    if r < 0 || (rise.(r) = rise.(m) && fall.(r) = fall.(m)) then r
    else rep next_rep.(r) m
  in
  let count = ref 0 in
  for m = 0 to n - 1 do
    let h = head.(m) in
    let r = rep h m in
    if r >= 0 then begin
      count := !count + size.(h) - same.(r);
      same.(r) <- same.(r) + 1
    end
    else begin
      count := !count + size.(h);
      same.(m) <- 1;
      next_rep.(m) <- next_rep.(h);
      next_rep.(h) <- m
    end;
    size.(h) <- size.(h) + 1
  done;
  !count

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

(* Equal-code states must agree on every excitation.  Sorted by full
   code ({!Sg.sort_by}), equal-code states are adjacent, so comparing
   each state with the one before it decides that without listing
   pairs. *)
let csc_satisfied sg =
  let rise, fall = Sg.full_excitation_masks sg in
  let code = Sg.full_code sg in
  let order = Sg.sort_by (Sg.n_states sg) ~bits:(Sg.full_width sg) code in
  let rec go k =
    k >= Array.length order
    ||
    let m = order.(k) and p = order.(k - 1) in
    (code m <> code p || (rise.(m) = rise.(p) && fall.(m) = fall.(p)))
    && go (k + 1)
  in
  go 1

let usc_satisfied sg = code_classes sg = []

let pp_summary ppf sg =
  Format.fprintf ppf
    "%s: %d states, %d same-code classes (max %d), %d CSC conflict pairs"
    (Sg.name sg) (Sg.n_states sg)
    (List.length (code_classes sg))
    (max_usc sg) (n_conflicts sg)
