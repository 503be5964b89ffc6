(* A flip changes only the flipped state's full code and excitation
   signature, so the global conflict count moves exactly by the change in
   conflicts involving that state.  We therefore keep per-state codes and
   signatures incrementally and never rebuild the graph inside the loop;
   the graph is reconstructed once per extra at the end. *)

let stable_candidates = function
  | Fourval.Up -> [ Fourval.V1; Fourval.V0 ]
  | Fourval.Dn -> [ Fourval.V0; Fourval.V1 ]
  | Fourval.V0 | Fourval.V1 -> []

let minimize_extra sg ~index =
  let n = Sg.n_states sg in
  let x = (Sg.extras sg).(index) in
  let values = Array.copy x.Sg.values in
  let own = 1 lsl (Sg.n_signals sg + index) in
  (* Signature of a state: the pair of excitation masks, non-input
     events and every extra's Up/Dn ([Sg.full_excitation_masks]).  Only
     the own extra's bit changes on a flip, and a flip always lands on a
     stable value, so the flipped state's new signature is its [base]:
     the masks with the own bit cleared. *)
  let rise, fall = Sg.full_excitation_masks sg in
  let base_rise = Array.map (fun r -> r land lnot own) rise in
  let base_fall = Array.map (fun f -> f land lnot own) fall in
  let code = Array.init n (Sg.full_code sg) in
  (* States by current full code: only states sharing the new code can
     conflict with the flipped state after the flip. *)
  let bucket = Hashtbl.create n in
  let members c = Option.value (Hashtbl.find_opt bucket c) ~default:[] in
  for m = n - 1 downto 0 do
    Hashtbl.replace bucket code.(m) (m :: members code.(m))
  done;
  (* A flip is admissible only when it creates no conflict pair that did
     not already exist — merely trading one conflict for another would
     leak unresolved pairs past the modules responsible for them. *)
  let no_new_conflicts m old_c new_c =
    let differs m' r f = rise.(m') <> r || fall.(m') <> f in
    List.for_all
      (fun m' ->
        let before = new_c = old_c && differs m' rise.(m) fall.(m) in
        let after = differs m' base_rise.(m) base_fall.(m) in
        m' = m || before || not after)
      (members new_c)
  in
  let edges_ok m v =
    (not
       (Sg.exists_succ sg m (fun e ->
            not (Fourval.edge_ok v values.(Sg.edge_dst sg e)))))
    && not
         (Sg.exists_pred sg m (fun e ->
              not (Fourval.edge_ok values.(Sg.edge_src sg e) v)))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for m = 0 to n - 1 do
      List.iter
        (fun v ->
          if Fourval.excited values.(m) && edges_ok m v then begin
            let new_code =
              if Fourval.binary v then code.(m) lor own
              else code.(m) land lnot own
            in
            if no_new_conflicts m code.(m) new_code then begin
              if new_code <> code.(m) then begin
                Hashtbl.replace bucket code.(m)
                  (List.filter (( <> ) m) (members code.(m)));
                Hashtbl.replace bucket new_code (m :: members new_code)
              end;
              values.(m) <- v;
              code.(m) <- new_code;
              rise.(m) <- base_rise.(m);
              fall.(m) <- base_fall.(m);
              changed := true
            end
          end)
        (stable_candidates values.(m))
    done
  done;
  Sg.set_extra_values sg ~index ~values

let minimize sg =
  let out = ref sg in
  for index = 0 to Sg.n_extras sg - 1 do
    out := minimize_extra !out ~index
  done;
  !out
