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

(* Bit [s] of [implied.(m)] is the implied value of non-input signal
   [s] at state [m] (paper §3.5): the code with excited falls cleared
   and excited rises set.  Input signals' bits are not meaningful. *)
let implied_codes sg =
  let rise, fall = Sg.excitation_masks sg in
  Array.init (Sg.n_states sg) (fun m ->
      (Sg.code sg m land lnot fall.(m)) lor rise.(m))

let check_non_input sg what s =
  if not (Sg.non_input sg s) then
    invalid_arg
      (Printf.sprintf "Derive.%s: %s is an input" what (Sg.signal_name sg s))

(* The on- and off-set of every signal in [signals], from one mask pass
   and one sort of the states by code: walking the states by decreasing
   code and consing each code once yields every set sorted and
   duplicate-free. *)
let on_off_sets sg ~signals =
  let implied = implied_codes sg in
  let codes = Array.init (Sg.n_states sg) (Sg.code sg) in
  let order = Array.init (Sg.n_states sg) Fun.id in
  Array.sort (fun a b -> Int.compare codes.(b) codes.(a)) order;
  let on = Array.make (Sg.n_signals sg) [] in
  let off = Array.make (Sg.n_signals sg) [] in
  let add set s c =
    match set.(s) with c' :: _ when c' = c -> () | l -> set.(s) <- c :: l
  in
  Array.iter
    (fun m ->
      let c = codes.(m) in
      List.iter
        (fun s -> add (if implied.(m) land (1 lsl s) <> 0 then on else off) s c)
        signals)
    order;
  List.map (fun s -> (on.(s), off.(s))) signals

let derive_one sg ~signal ~support (onset, offset) =
  if Sg.n_extras sg > 0 then
    invalid_arg "Derive.synthesize_one: expand the state graph first";
  let width = Sg.n_signals sg in
  (match Support.first_overlap ~onset ~offset with
  | Some m ->
    raise
      (Not_csc
         (Printf.sprintf "signal %s: code %d implies both values"
            (Sg.signal_name sg signal) m))
  | None -> ());
  let support =
    try Support.grow ~width ~vars:support ~onset ~offset
    with Invalid_argument _ ->
      raise
        (Not_csc
           (Printf.sprintf "signal %s: no support separates on and off sets"
              (Sg.signal_name sg signal)))
  in
  let proj = Support.project ~vars:support in
  let onset_p = List.sort_uniq Int.compare (List.map proj onset) in
  let offset_p = List.sort_uniq Int.compare (List.map proj offset) in
  let width = List.length support in
  let cover = Espresso.minimize ~width ~onset:onset_p ~offset:offset_p in
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
  derive_one sg ~signal ~support
    (List.hd (on_off_sets sg ~signals:[ signal ]))

let synthesize ?(support_of = fun _ -> None) sg =
  let non_inputs =
    List.filter (Sg.non_input sg) (List.init (Sg.n_signals sg) Fun.id)
  in
  List.map2
    (fun s sets ->
      let support =
        match support_of s with
        | Some vars -> vars
        | None ->
          let onset, offset = sets in
          Support.reduce ~width:(Sg.n_signals sg) ~onset ~offset
      in
      derive_one sg ~signal:s ~support sets)
    non_inputs
    (on_off_sets sg ~signals:non_inputs)

let total_literals fs =
  List.fold_left (fun acc f -> acc + Cover.n_literals f.cover) 0 fs

let check fs sg =
  List.iter (fun f -> check_non_input sg "check" f.signal) fs;
  let implied = implied_codes sg in
  let bad = ref [] in
  List.iter
    (fun f ->
      for m = 0 to Sg.n_states sg - 1 do
        let expected = implied.(m) land (1 lsl f.signal) <> 0 in
        let projected = Support.project ~vars:f.support (Sg.code sg m) in
        if Cover.eval f.cover projected <> expected then
          bad := (f.name, m) :: !bad
      done)
    fs;
  List.rev !bad

let pp_func ppf f =
  Format.fprintf ppf "%s = %s" f.name (Cover.to_sop f.var_names f.cover)
