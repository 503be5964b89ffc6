type formula_size = { vars : int; clauses : int }

type proposal = Model of bool array | Unsat | Abort of Dpll.abort_reason

type outcome = Found of Sg.t * int | Gave_up of Dpll.abort_reason

type result = { outcome : outcome; formulas : formula_size list }

let max_model_rejects = 32

let dpll ?backtrack_limit ~deadline cnf =
  match Dpll.solve ?backtrack_limit ~deadline cnf with
  | Dpll.Sat model, _ -> Model model
  | Dpll.Unsat, _ -> Unsat
  | Dpll.Aborted r, _ -> Abort r

let search ?resolve ?(accept = fun _ -> true) ~ladder ~propose ~realize sg =
  let formulas = ref [] in
  let finish outcome = { outcome; formulas = List.rev !formulas } in
  let rec climb = function
    | [] -> finish (Gave_up Dpll.Signal_limit)
    | (n_new, mode) :: higher ->
      let enc = Csc_encode.encode ?resolve ~mode sg ~n_new in
      let cnf = enc.Csc_encode.cnf in
      formulas :=
        { vars = Cnf.n_vars cnf; clauses = Cnf.n_clauses cnf } :: !formulas;
      let rec models rejected =
        match propose cnf with
        | Unsat -> climb higher
        | Abort r -> finish (Gave_up r)
        | Model model ->
          let solved = realize enc model in
          if accept solved then finish (Found (solved, n_new))
          else if rejected + 1 >= max_model_rejects then climb higher
          else begin
            let block = ref [] in
            for v = 1 to enc.Csc_encode.base_vars do
              block := (if model.(v) then -v else v) :: !block
            done;
            Cnf.add_clause cnf !block;
            models (rejected + 1)
          end
      in
      models 0
  in
  climb ladder
