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

let on_off_sets sg ~signal =
  let on = ref [] and off = ref [] in
  for m = 0 to Sg.n_states sg - 1 do
    let c = Sg.code sg m in
    if Sg.implied_value sg m signal then on := c :: !on else off := c :: !off
  done;
  ( List.sort_uniq Int.compare !on,
    List.sort_uniq Int.compare !off )

type cover_memo =
  minimizer:[ `Heuristic | `Exact ] ->
  width:int ->
  onset:int list ->
  offset:int list ->
  (unit -> Cover.t) ->
  Cover.t

(* The default memo is the identity: compute.  A caller (the synthesis
   cache) can interpose persistent memoization of the minimized covers
   — the espresso/exact step is the only expensive part of derivation
   and depends on nothing but its literal arguments. *)
let no_memo ~minimizer:_ ~width:_ ~onset:_ ~offset:_ compute = compute ()

let derive_one ~minimizer ~memo_cover sg ~signal ~support (onset, offset) =
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
  let cover =
    memo_cover ~minimizer ~width ~onset:onset_p ~offset:offset_p (fun () ->
        match minimizer with
        | `Heuristic -> Espresso.minimize ~width ~onset:onset_p ~offset:offset_p
        | `Exact -> (
          try Exact.minimize ~width ~onset:onset_p ~offset:offset_p ()
          with Exact.Too_large _ ->
            Espresso.minimize ~width ~onset:onset_p ~offset:offset_p))
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

let synthesize_one ?(minimizer = `Heuristic) ?(memo_cover = no_memo) sg ~signal
    ~support =
  derive_one ~minimizer ~memo_cover sg ~signal ~support (on_off_sets sg ~signal)

let synthesize ?(minimizer = `Heuristic) ?(memo_cover = no_memo)
    ?(support_of = fun _ -> None) sg =
  let non_inputs =
    List.filter (Sg.non_input sg) (List.init (Sg.n_signals sg) Fun.id)
  in
  List.map
    (fun s ->
      let sets = on_off_sets sg ~signal:s in
      let support =
        match support_of s with
        | Some vars -> vars
        | None ->
          let onset, offset = sets in
          Support.reduce ~width:(Sg.n_signals sg) ~onset ~offset
      in
      derive_one ~minimizer ~memo_cover sg ~signal:s ~support sets)
    non_inputs

let total_literals fs =
  List.fold_left (fun acc f -> acc + Cover.n_literals f.cover) 0 fs

let check fs sg =
  let bad = ref [] in
  List.iter
    (fun f ->
      for m = 0 to Sg.n_states sg - 1 do
        let expected = Sg.implied_value sg m f.signal in
        let projected = Support.project ~vars:f.support (Sg.code sg m) in
        if Cover.eval f.cover projected <> expected then
          bad := (f.name, m) :: !bad
      done)
    fs;
  List.rev !bad

let pp_func ppf f =
  Format.fprintf ppf "%s = %s" f.name (Cover.to_sop f.var_names f.cover)
