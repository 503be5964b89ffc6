type func = {
  signal : int;
  name : string;
  support : int list;
  var_names : string array;
  onset : int list;
  offset : int list;
  cover : Cover.t;
}

exception Not_csc of string

let check_non_input sg what s =
  if not (Sg.non_input sg s) then
    invalid_arg
      (Printf.sprintf "Derive.%s: %s is an input" what (Sg.signal_name sg s))

(* The implied code of state [m] (paper §3.5): the code with excited
   falls cleared and excited rises set, so bit [s] is the next value of
   non-input signal [s].  Input signals' bits are not meaningful. *)
let implied sg ~rise ~fall m = (Sg.code sg m land lnot fall.(m)) lor rise.(m)

(* The graph's distinct state codes, ascending, and for each the OR of
   its states' implied codes ([ones]) and of their complements
   ([zeros]): bit [s] of [ones.(i)] ([zeros.(i)]) is set when some state
   with code [codes.(i)] implies [s] = 1 (= 0).  Every signal's sets are
   filters of it. *)
type table = { codes : int array; ones : int array; zeros : int array }

(* one walk of the states in code order ({!Sg.sort_by}, a radix sort) *)
let table sg =
  let order =
    Sg.sort_by (Sg.n_states sg) ~bits:(Sg.n_signals sg) (Sg.code sg)
  in
  let code k = Sg.code sg order.(k) in
  let n = Array.length order in
  let d = ref 0 in
  for k = 0 to n - 1 do
    if k = 0 || code k <> code (k - 1) then incr d
  done;
  let codes = Array.make !d 0 in
  let ones = Array.make !d 0 and zeros = Array.make !d 0 in
  let full = (1 lsl Sg.n_signals sg) - 1 in
  let rise, fall = Sg.excitation_masks sg in
  let i = ref (-1) in
  for k = 0 to n - 1 do
    if k = 0 || code k <> code (k - 1) then begin
      incr i;
      codes.(!i) <- code k
    end;
    let v = implied sg ~rise ~fall order.(k) in
    ones.(!i) <- ones.(!i) lor v;
    zeros.(!i) <- zeros.(!i) lor (lnot v land full)
  done;
  { codes; ones; zeros }

(* the codes whose [bits] entry has bit [s] set, ascending *)
let filter t bits s =
  let bit = 1 lsl s in
  let k = ref 0 in
  Array.iter (fun b -> if b land bit <> 0 then incr k) bits;
  let out = Array.make !k 0 in
  k := 0;
  Array.iteri
    (fun i b ->
      if b land bit <> 0 then begin
        out.(!k) <- t.codes.(i);
        incr k
      end)
    bits;
  out

let sets t s = (filter t t.ones s, filter t t.zeros s)

let on_off_sets sg ~signals =
  let t = table sg in
  List.map (sets t) signals

(* the smallest code implying both values of [s], if any *)
let first_overlap t s =
  let bit = 1 lsl s in
  let rec go i =
    if i = Array.length t.codes then None
    else if t.ones.(i) land t.zeros.(i) land bit <> 0 then Some t.codes.(i)
    else go (i + 1)
  in
  go 0

(* [support] is the proposed support, or [None] to reduce one from the
   full signal set.  A proposed support that keeps the projections
   disjoint is projected by the same pass that tests it; [Support.grow]
   runs only when they collide.  A signal whose sets pass the overlap
   test here cannot make [grow] fail: that is the same test. *)
let derive_one sg t scratch ~signal ~support =
  if Sg.n_extras sg > 0 then
    invalid_arg "Derive.synthesize_one: expand the state graph first";
  let width = Sg.n_signals sg in
  (match first_overlap t signal with
  | Some m ->
    raise
      (Not_csc
         (Printf.sprintf "signal %s: code %d implies both values"
            (Sg.signal_name sg signal) m))
  | None -> ());
  let onset, offset = sets t signal in
  let support =
    match support with
    | Some vars -> List.sort_uniq Int.compare vars
    | None -> Support.reduce scratch ~width ~onset ~offset
  in
  let support, (onset_p, offset_p) =
    match Support.project_sets scratch ~vars:support ~onset ~offset with
    | Some sets -> (support, sets)
    | None ->
      let support = Support.grow scratch ~width ~vars:support ~onset ~offset in
      ( support,
        Option.get (Support.project_sets scratch ~vars:support ~onset ~offset) )
  in
  let cover =
    Espresso.minimize ~width:(List.length support) ~onset:onset_p
      ~offset:offset_p
  in
  {
    signal;
    name = Sg.signal_name sg signal;
    support;
    var_names = Array.of_list (List.map (Sg.signal_name sg) support);
    onset = onset_p;
    offset = offset_p;
    cover;
  }

let synthesize_one sg ~signal ~support =
  check_non_input sg "synthesize_one" signal;
  let t = table sg in
  derive_one sg t (Support.scratch ()) ~signal ~support:(Some support)

let synthesize ?(support_of = fun _ -> None) sg =
  let t = table sg and scratch = Support.scratch () in
  List.filter_map
    (fun s ->
      if Sg.non_input sg s then
        Some (derive_one sg t scratch ~signal:s ~support:(support_of s))
      else None)
    (List.init (Sg.n_signals sg) Fun.id)

let total_literals fs =
  List.fold_left (fun acc f -> acc + Cover.n_literals f.cover) 0 fs

(* [lift vars x] moves bit [i] of [x] to bit [List.nth vars i]: a cube
   over [vars] lifts to full-code masks [(care, value)], and a code lies
   in it when [code land care = value]. *)
let lift vars x =
  let r = ref 0 in
  List.iteri
    (fun i v -> if x land (1 lsl i) <> 0 then r := !r lor (1 lsl v))
    vars;
  !r

let rec covered care value c j =
  j < Array.length care
  && (c land care.(j) = value.(j) || covered care value c (j + 1))

let check fs sg =
  List.iter (fun f -> check_non_input sg "check" f.signal) fs;
  let rise, fall = Sg.excitation_masks sg in
  let bad = ref [] in
  List.iter
    (fun f ->
      let cubes = Array.of_list f.cover.Cover.cubes in
      let care =
        Array.map (fun (c : Cube.t) -> lift f.support (c.pos lor c.neg)) cubes
      in
      let value = Array.map (fun (c : Cube.t) -> lift f.support c.pos) cubes in
      let bit = 1 lsl f.signal in
      for m = 0 to Sg.n_states sg - 1 do
        let expected = implied sg ~rise ~fall m land bit <> 0 in
        if covered care value (Sg.code sg m) 0 <> expected then
          bad := (f.name, m) :: !bad
      done)
    fs;
  List.rev !bad

let pp_func ppf f =
  Format.fprintf ppf "%s = %s" f.name (Cover.to_sop f.var_names f.cover)
