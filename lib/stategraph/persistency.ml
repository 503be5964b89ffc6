type violation = {
  state : int;
  fired : int * Sg.edge_dir;
  disabled : int * Sg.edge_dir;
  successor : int;
}

let violations sg =
  let out = ref [] in
  for m = 0 to Sg.n_states sg - 1 do
    let excited = Sg.excited_events sg m in
    Sg.iter_succ sg m (fun e ->
        let m' = Sg.edge_dst sg e in
        let excited' = Sg.excited_events sg m' in
        List.iter
          (fun (s, d) ->
            if Sg.non_input sg s then
              let this_fired = Sg.edge_label sg e = Sg.label_code s d in
              if (not this_fired) && not (List.mem (s, d) excited') then
                out :=
                  {
                    state = m;
                    fired = (Sg.edge_signal sg e, Sg.edge_dir sg e);
                    disabled = (s, d);
                    successor = m';
                  }
                  :: !out)
          excited)
  done;
  List.rev !out

(* The same condition as [violations], decided on per-state excitation
   masks and stopped at the first violating edge. *)
let is_semi_modular sg =
  let rise, fall = Sg.excitation_masks sg in
  let rec go e =
    e >= Sg.n_edges sg
    ||
    let fired = 1 lsl Sg.edge_signal sg e in
    let fired_r, fired_f = if Sg.edge_dir sg e = Sg.R then (fired, 0) else (0, fired) in
    let m = Sg.edge_src sg e and m' = Sg.edge_dst sg e in
    rise.(m) land lnot fired_r land lnot rise.(m') = 0
    && fall.(m) land lnot fired_f land lnot fall.(m') = 0
    && go (e + 1)
  in
  go 0

let choice_states sg =
  let acc = ref [] in
  for m = Sg.n_states sg - 1 downto 0 do
    let inputs =
      List.filter (fun (s, _) -> not (Sg.non_input sg s)) (Sg.excited_events sg m)
    in
    if List.length inputs >= 2 then acc := m :: !acc
  done;
  !acc

let pp_violation sg ppf v =
  let s, d = v.disabled in
  Format.fprintf ppf "state %d: firing %a disables %s%s (state %d)" v.state
    (Sg.pp_event sg) v.fired (Sg.signal_name sg s)
    (match d with Sg.R -> "+" | Sg.F -> "-")
    v.successor
