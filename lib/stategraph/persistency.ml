type violation = {
  state : int;
  fired : Sg.label;
  disabled : int * Sg.edge_dir;
  successor : int;
}

let violations sg =
  let out = ref [] in
  for m = 0 to Sg.n_states sg - 1 do
    let excited = Sg.excited_events sg m in
    List.iter
      (fun e ->
        let m' = e.Sg.dst in
        let excited' = Sg.excited_events sg m' in
        List.iter
          (fun (s, d) ->
            if Sg.non_input sg s then
              let this_fired =
                match e.Sg.label with
                | Sg.Ev (s', d') -> s' = s && d' = d
              in
              if (not this_fired) && not (List.mem (s, d) excited') then
                out :=
                  {
                    state = m;
                    fired = e.Sg.label;
                    disabled = (s, d);
                    successor = m';
                  }
                  :: !out)
          excited)
      (Sg.succ sg m)
  done;
  List.rev !out

(* The same condition as [violations], decided on per-state excitation
   masks and stopped at the first violating edge. *)
let is_semi_modular sg =
  let rise, fall = Sg.excitation_masks sg in
  let edges = Sg.edges sg in
  let rec go i =
    i >= Array.length edges
    ||
    let e = edges.(i) in
    let fired_r, fired_f =
      match e.Sg.label with
      | Sg.Ev (s, Sg.R) -> (1 lsl s, 0)
      | Sg.Ev (s, Sg.F) -> (0, 1 lsl s)
    in
    let m = e.Sg.src and m' = e.Sg.dst in
    rise.(m) land lnot fired_r land lnot rise.(m') = 0
    && fall.(m) land lnot fired_f land lnot fall.(m') = 0
    && go (i + 1)
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
    (Sg.pp_label sg) v.fired (Sg.signal_name sg s)
    (match d with Sg.R -> "+" | Sg.F -> "-")
    v.successor
