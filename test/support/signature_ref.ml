(* Excitation keys as strings, the way [Sg], [Csc] and [Region_minimize]
   compared excitation before they switched to mask pairs: a state's
   signature is the ";"-terminated list of its excited non-input events
   and excited extras.  The reference the test-suite compares
   [Csc.conflict_pairs], [Csc.orphan_conflict_pairs] and
   [Region_minimize.minimize_extra] against, pair for pair and label for
   label. *)

let excitation_signature sg m =
  let buf = Buffer.create 32 in
  List.iter
    (fun (s, d) ->
      if Sg.non_input sg s then
        Buffer.add_string buf
          (Printf.sprintf "%d%c;" s (match d with Sg.R -> '+' | Sg.F -> '-')))
    (Sg.excited_events sg m);
  Array.iteri
    (fun i (x : Sg.extra) ->
      match x.Sg.values.(m) with
      | Fourval.Up -> Buffer.add_string buf (Printf.sprintf "x%d+;" i)
      | Fourval.Dn -> Buffer.add_string buf (Printf.sprintf "x%d-;" i)
      | Fourval.V0 | Fourval.V1 -> ())
    (Sg.extras sg);
  Buffer.contents buf

let conflict_pairs sg =
  let pairs = ref [] in
  List.iter
    (fun members ->
      let sigs = List.map (fun m -> (m, excitation_signature sg m)) members in
      let rec all_pairs = function
        | [] -> ()
        | (m, sm) :: rest ->
          List.iter
            (fun (m', sm') -> if sm <> sm' then pairs := (m, m') :: !pairs)
            rest;
          all_pairs rest
      in
      all_pairs sigs)
    (Csc.code_classes sg);
  List.sort compare !pairs

let visible_signature sg m =
  let buf = Buffer.create 16 in
  List.iter
    (fun (s, d) ->
      if Sg.non_input sg s then
        Buffer.add_string buf
          (Printf.sprintf "%d%c;" s (match d with Sg.R -> '+' | Sg.F -> '-')))
    (Sg.excited_events sg m);
  Buffer.contents buf

let orphan_conflict_pairs sg =
  List.filter
    (fun (m, m') -> visible_signature sg m = visible_signature sg m')
    (conflict_pairs sg)

let stable_candidates = function
  | Fourval.Up -> [ Fourval.V1; Fourval.V0 ]
  | Fourval.Dn -> [ Fourval.V0; Fourval.V1 ]
  | Fourval.V0 | Fourval.V1 -> []

let minimize_extra sg ~index =
  let n = Sg.n_states sg in
  let x = (Sg.extras sg).(index) in
  let values = Array.copy x.Sg.values in
  let bitpos = Sg.n_signals sg + index in
  (* Signature of a state: base non-input excitation is constant; the
     extras part depends on [values] for our extra and is fixed for the
     others.  We build "sig = base ^ other-extras ^ own-part" with the own
     part recomputed on flips. *)
  let base_sig = Array.make n "" in
  for m = 0 to n - 1 do
    let buf = Buffer.create 16 in
    List.iter
      (fun (s, d) ->
        if Sg.non_input sg s then
          Buffer.add_string buf
            (Printf.sprintf "%d%c;" s (match d with Sg.R -> '+' | Sg.F -> '-')))
      (Sg.excited_events sg m);
    Array.iteri
      (fun i (y : Sg.extra) ->
        if i <> index then
          match y.Sg.values.(m) with
          | Fourval.Up -> Buffer.add_string buf (Printf.sprintf "x%d+;" i)
          | Fourval.Dn -> Buffer.add_string buf (Printf.sprintf "x%d-;" i)
          | Fourval.V0 | Fourval.V1 -> ())
      (Sg.extras sg);
    base_sig.(m) <- Buffer.contents buf
  done;
  let own_part m =
    match values.(m) with
    | Fourval.Up -> "own+"
    | Fourval.Dn -> "own-"
    | Fourval.V0 | Fourval.V1 -> ""
  in
  let code = Array.init n (Sg.full_code sg) in
  let sigs = Array.init n (fun m -> base_sig.(m) ^ own_part m) in
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
  let no_new_conflicts m old_c old_s new_c new_s =
    List.for_all
      (fun m' ->
        let before = new_c = old_c && sigs.(m') <> old_s in
        let after = sigs.(m') <> new_s in
        m' = m || before || not after)
      (members new_c)
  in
  let edges_ok m v =
    List.for_all
      (fun e -> Fourval.edge_ok v values.(e.Sg_records.dst))
      (Sg_records.succ sg m)
    && List.for_all
         (fun e -> Fourval.edge_ok values.(e.Sg_records.src) v)
         (Sg_records.pred sg m)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for m = 0 to n - 1 do
      List.iter
        (fun v ->
          if Fourval.excited values.(m) && edges_ok m v then begin
            let new_code =
              if Fourval.binary v then code.(m) lor (1 lsl bitpos)
              else code.(m) land lnot (1 lsl bitpos)
            in
            let new_sig = base_sig.(m) (* stable: own part empty *) in
            if no_new_conflicts m code.(m) sigs.(m) new_code new_sig then begin
              if new_code <> code.(m) then begin
                Hashtbl.replace bucket code.(m)
                  (List.filter (( <> ) m) (members code.(m)));
                Hashtbl.replace bucket new_code (m :: members new_code)
              end;
              values.(m) <- v;
              code.(m) <- new_code;
              sigs.(m) <- new_sig;
              changed := true
            end
          end)
        (stable_candidates values.(m))
    done
  done;
  Sg.set_extra_values sg ~index ~values
