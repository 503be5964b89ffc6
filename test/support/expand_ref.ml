(* Expansion one extra at a time, as [Sg_expand] did before it built
   every extra in one pass: the reference the test-suite compares
   [Sg_expand.expand] against, state for state and edge for edge.
   [expand_one sg] realises the first extra of [sg] as a new visible
   internal signal (appended after the existing signals) and returns
   the rewritten graph, whose extras are the remaining ones; it raises
   [Invalid_argument] if [sg] has no extras. *)

let expand_one sg =
  let extras = Sg.extras sg in
  if Array.length extras = 0 then
    invalid_arg "Expand_ref.expand_one: no extras to expand";
  let x = extras.(0) in
  let rest = Array.sub extras 1 (Array.length extras - 1) in
  let n = Sg.n_states sg in
  let ns = Sg.n_signals sg in
  let new_sig = ns in
  (* Allocate new state ids: [fst_id.(m)] is the (first) copy of [m];
     excited states get a second copy [snd_id.(m)]. *)
  let fst_id = Array.make n 0 and snd_id = Array.make n (-1) in
  let count = ref 0 in
  for m = 0 to n - 1 do
    fst_id.(m) <- !count;
    incr count;
    if Fourval.excited x.Sg.values.(m) then begin
      snd_id.(m) <- !count;
      incr count
    end
  done;
  let n' = !count in
  let codes = Array.make n' 0 in
  let bit_of m half =
    (* value of the new signal in the given half of old state [m] *)
    match (x.Sg.values.(m), half) with
    | Fourval.V0, _ -> false
    | Fourval.V1, _ -> true
    | Fourval.Up, `A -> false
    | Fourval.Up, `B -> true
    | Fourval.Dn, `A -> true
    | Fourval.Dn, `B -> false
  in
  for m = 0 to n - 1 do
    let base = Sg.code sg m in
    codes.(fst_id.(m)) <- (if bit_of m `A then base lor (1 lsl new_sig) else base);
    if snd_id.(m) >= 0 then
      codes.(snd_id.(m)) <-
        (if bit_of m `B then base lor (1 lsl new_sig) else base)
  done;
  let edges = ref [] in
  let add src label dst = edges := { Sg_records.src; label; dst } :: !edges in
  (* The inserted transitions themselves. *)
  for m = 0 to n - 1 do
    match x.Sg.values.(m) with
    | Fourval.Up -> add fst_id.(m) (Sg_records.Ev (new_sig, Sg.R)) snd_id.(m)
    | Fourval.Dn -> add fst_id.(m) (Sg_records.Ev (new_sig, Sg.F)) snd_id.(m)
    | Fourval.V0 | Fourval.V1 -> ()
  done;
  (* Re-routed original edges. *)
  Array.iter
    (fun e ->
      let v = x.Sg.values.(e.Sg_records.src) and v' = x.Sg.values.(e.Sg_records.dst) in
      let s = e.Sg_records.src and d = e.Sg_records.dst in
      match (v, v') with
      | Fourval.V0, Fourval.V0 | Fourval.V1, Fourval.V1 ->
        add fst_id.(s) e.Sg_records.label fst_id.(d)
      | Fourval.V0, Fourval.Up | Fourval.V1, Fourval.Dn ->
        add fst_id.(s) e.Sg_records.label fst_id.(d)
      | Fourval.Up, Fourval.V1 | Fourval.Dn, Fourval.V0 ->
        add snd_id.(s) e.Sg_records.label fst_id.(d)
      | Fourval.Up, Fourval.Up | Fourval.Dn, Fourval.Dn ->
        add fst_id.(s) e.Sg_records.label fst_id.(d);
        add snd_id.(s) e.Sg_records.label snd_id.(d)
      | _ ->
        (* add_extra validated the assignment, so this cannot happen *)
        assert false)
    (Sg_records.edges sg);
  let signals =
    Array.append
      (Array.init ns (fun s ->
           { Sg.sname = Sg.signal_name sg s; non_input = Sg.non_input sg s }))
      [| { Sg.sname = x.Sg.xname; non_input = true } |]
  in
  let initial = fst_id.(Sg.initial sg) in
  let base =
    Sg_records.make ~name:(Sg.name sg) ~signals ~codes ~edges:(List.rev !edges)
      ~initial
  in
  (* Remaining extras: both halves inherit the old state's value. *)
  Array.fold_left
    (fun acc (y : Sg.extra) ->
      let values = Array.make n' Fourval.V0 in
      for m = 0 to n - 1 do
        values.(fst_id.(m)) <- y.Sg.values.(m);
        if snd_id.(m) >= 0 then values.(snd_id.(m)) <- y.Sg.values.(m)
      done;
      Sg.add_extra acc ~name:y.Sg.xname ~values)
    base rest
