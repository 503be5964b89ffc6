type t = {
  signal : int;
  name : string;
  support : int list;
  var_names : string array;
  set_cover : Cover.t;
  reset_cover : Cover.t;
}

(* The four regions of a signal: rising / falling excitation, stable 0 /
   stable 1 (quiescent).  Codes over all visible signals. *)
let regions sg ~signal =
  let rising = ref [] and falling = ref [] in
  let stable0 = ref [] and stable1 = ref [] in
  for m = 0 to Sg.n_states sg - 1 do
    let c = Sg.code sg m in
    let excited d =
      List.exists (fun (s, d') -> s = signal && d' = d) (Sg.excited_events sg m)
    in
    if Sg.bit sg m signal then
      if excited Sg.F then falling := c :: !falling else stable1 := c :: !stable1
    else if excited Sg.R then rising := c :: !rising
    else stable0 := c :: !stable0
  done;
  let u = List.sort_uniq Int.compare in
  (u !rising, u !falling, u !stable0, u !stable1)

let decompose sg ~signal ~support =
  if Sg.n_extras sg > 0 then
    invalid_arg "Celement.decompose: expand the state graph first";
  let rising, falling, stable0, stable1 = regions sg ~signal in
  let width = Sg.n_signals sg in
  let set_on = rising and set_off = List.sort_uniq Int.compare (stable0 @ falling) in
  let reset_on = falling
  and reset_off = List.sort_uniq Int.compare (stable1 @ rising) in
  let grow vars ~onset ~offset =
    try
      Support.grow (Support.scratch ()) ~width ~vars
        ~onset:(Array.of_list onset)
        ~offset:(Array.of_list offset)
    with Invalid_argument _ ->
      raise
        (Derive.Not_csc
           (Printf.sprintf "signal %s: set/reset regions not separable"
              (Sg.signal_name sg signal)))
  in
  let support = grow support ~onset:set_on ~offset:set_off in
  let support = grow support ~onset:reset_on ~offset:reset_off in
  let proj = Support.project ~vars:support in
  let p l = List.sort_uniq Int.compare (List.map proj l) in
  let w = List.length support in
  let minimize ~onset ~offset = Espresso.minimize ~width:w ~onset ~offset in
  {
    signal;
    name = Sg.signal_name sg signal;
    support;
    var_names = Array.of_list (List.map (Sg.signal_name sg) support);
    set_cover = minimize ~onset:(p set_on) ~offset:(p set_off);
    reset_cover = minimize ~onset:(p reset_on) ~offset:(p reset_off);
  }

let decompose_all sg =
  List.filter_map
    (fun s ->
      if Sg.non_input sg s then begin
        let rising, falling, stable0, stable1 = regions sg ~signal:s in
        let width = Sg.n_signals sg in
        let support =
          Support.reduce (Support.scratch ()) ~width
            ~onset:(Array.of_list (rising @ falling))
            ~offset:(Array.of_list (stable0 @ stable1))
          (* a rough starting point; decompose grows it as needed *)
        in
        Some (decompose sg ~signal:s ~support)
      end
      else None)
    (List.init (Sg.n_signals sg) Fun.id)

let literals c = Cover.n_literals c.set_cover + Cover.n_literals c.reset_cover
let total_literals cs = List.fold_left (fun a c -> a + literals c) 0 cs

let verify sg cs =
  let bad = ref [] in
  List.iter
    (fun c ->
      let proj m = Support.project ~vars:c.support (Sg.code sg m) in
      for m = 0 to Sg.n_states sg - 1 do
        let s_on = Cover.eval c.set_cover (proj m) in
        let r_on = Cover.eval c.reset_cover (proj m) in
        let excited d =
          List.exists
            (fun (s', d') -> s' = c.signal && d' = d)
            (Sg.excited_events sg m)
        in
        let bit = Sg.bit sg m c.signal in
        let fail fmt =
          Printf.ksprintf (fun msg -> bad := msg :: !bad) fmt
        in
        if (not bit) && excited Sg.R && not s_on then
          fail "%s: set off in rising state %d" c.name m;
        if (not bit) && (not (excited Sg.R)) && s_on then
          fail "%s: set on in stable-0 state %d" c.name m;
        if bit && excited Sg.F && not r_on then
          fail "%s: reset off in falling state %d" c.name m;
        if bit && (not (excited Sg.F)) && r_on then
          fail "%s: reset on in stable-1 state %d" c.name m;
        if s_on && r_on then fail "%s: set and reset overlap in state %d" c.name m
      done)
    cs;
  List.rev !bad

let pp ppf c =
  Format.fprintf ppf "%s: set = %s ; reset = %s" c.name
    (Cover.to_sop c.var_names c.set_cover)
    (Cover.to_sop c.var_names c.reset_cover)
