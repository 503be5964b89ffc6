(* A flip changes only the flipped state's full code and excitation
   signature, so the global conflict count moves exactly by the change in
   conflicts involving that state.  We therefore keep per-state codes and
   signatures incrementally and never rebuild the graph inside the loop;
   the graph is reconstructed once per extra at the end.

   The decision at an excited state [m] reads [m]'s neighbours' values
   (edge legality) and the codes and excitation masks of [m]'s group:
   the states whose full code equals [m]'s up to the own bit, the only
   ones a flip of [m] can newly conflict with.  A flip changes only the
   own bit of a code, so groups never change.  After a flip at [p],
   the states whose inputs changed are [p]'s predecessors and
   successors and [p]'s group; only those are visited again.  A state
   marked ahead of the cursor is visited in the same pass, one marked
   behind it in the next, exactly where a full re-scan would reach it
   next: every state a re-scan would skip decides as it did at its last
   visit, so the flip sequence is the re-scan's. *)

let minimize_extra sg ~index =
  let n = Sg.n_states sg in
  let values = Array.copy (Sg.extras sg).(index).Sg.values in
  let own = 1 lsl (Sg.n_signals sg + index) in
  (* Signature of a state: the pair of excitation masks, non-input
     events and every extra's Up/Dn ([Sg.full_excitation_masks]).  Only
     the own extra's bit changes on a flip, and a flip always lands on a
     stable value, so the flipped state's new signature is its masks
     with the own bit cleared. *)
  let rise, fall = Sg.full_excitation_masks sg in
  let code = Array.init n (Sg.full_code sg) in
  let head, next = Sg.group_by n (fun m -> code.(m) land lnot own) in
  (* A flip is admissible only when it creates no conflict pair that did
     not already exist — merely trading one conflict for another would
     leak unresolved pairs past the modules responsible for them. *)
  let no_new_conflicts m new_c =
    let r = rise.(m) land lnot own and f = fall.(m) land lnot own in
    let rec ok m' =
      m' < 0
      || (m' = m
         || code.(m') <> new_c
         || new_c = code.(m)
            && (rise.(m') <> rise.(m) || fall.(m') <> fall.(m))
         || (rise.(m') = r && fall.(m') = f))
         && ok next.(m')
    in
    ok head.(m)
  in
  let edges_ok m v =
    (not
       (Sg.exists_succ sg m (fun e ->
            not (Fourval.edge_ok v values.(Sg.edge_dst sg e)))))
    && not
         (Sg.exists_pred sg m (fun e ->
              not (Fourval.edge_ok values.(Sg.edge_src sg e) v)))
  in
  (* the excited states whose inputs changed since their last visit *)
  let pending = Array.map Fourval.excited values in
  let n_pending =
    ref (Array.fold_left (fun a p -> if p then a + 1 else a) 0 pending)
  in
  let mark m =
    if (not pending.(m)) && Fourval.excited values.(m) then begin
      pending.(m) <- true;
      incr n_pending
    end
  in
  let flip m v =
    edges_ok m v
    &&
    let new_c =
      if Fourval.binary v then code.(m) lor own else code.(m) land lnot own
    in
    no_new_conflicts m new_c
    && begin
         values.(m) <- v;
         code.(m) <- new_c;
         rise.(m) <- rise.(m) land lnot own;
         fall.(m) <- fall.(m) land lnot own;
         Sg.iter_succ sg m (fun e -> mark (Sg.edge_dst sg e));
         Sg.iter_pred sg m (fun e -> mark (Sg.edge_src sg e));
         let rec group m' =
           if m' >= 0 then begin
             mark m';
             group next.(m')
           end
         in
         group head.(m);
         true
       end
  in
  let visits = ref 0 in
  while !n_pending > 0 do
    for m = 0 to n - 1 do
      if pending.(m) then begin
        pending.(m) <- false;
        decr n_pending;
        incr visits;
        match values.(m) with
        | Fourval.Up -> ignore (flip m Fourval.V1 || flip m Fourval.V0)
        | Fourval.Dn -> ignore (flip m Fourval.V0 || flip m Fourval.V1)
        | Fourval.V0 | Fourval.V1 -> ()
      end
    done
  done;
  Counter.add Counter.minimize_visit !visits;
  Sg.set_extra_values sg ~index ~values

let minimize sg =
  let out = ref sg in
  for index = 0 to Sg.n_extras sg - 1 do
    out := minimize_extra !out ~index
  done;
  !out
