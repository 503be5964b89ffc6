type formula_size = { vars : int; clauses : int }
type outcome = Solved of Sg.t | Gave_up of Dpll.abort_reason

type report = {
  outcome : outcome;
  n_new : int;
  formulas : formula_size list;
  solver_stats : Dpll.stats list;
}

let max_model_rejects = 32

(* Signals tried beyond the lower bound before giving up. *)
let max_extra = 6

let solve ?backtrack_limit ?time_limit ?(accept = fun _ -> true) sg =
  let deadline = Deadline.of_limit time_limit in
  let formulas = ref [] and stats = ref [] in
  let finish outcome n_new =
    {
      outcome;
      n_new;
      formulas = List.rev !formulas;
      solver_stats = List.rev !stats;
    }
  in
  if Csc.csc_satisfied sg then finish (Solved sg) 0
  else begin
    let lb = max 1 (Csc.lower_bound sg) in
    let rec attempt n_new =
      if n_new > lb + max_extra then finish (Gave_up Dpll.Signal_limit) 0
      else begin
        let enc = Csc_encode.encode sg ~n_new in
        formulas :=
          { vars = Cnf.n_vars enc.Csc_encode.cnf;
            clauses = Cnf.n_clauses enc.Csc_encode.cnf }
          :: !formulas;
        let rec models rejected =
          let result, st =
            Dpll.solve ?backtrack_limit ~deadline enc.Csc_encode.cnf
          in
          stats := st :: !stats;
          match result with
          | Dpll.Sat model -> (
            let names =
              Array.init n_new (fun k -> "csc" ^ string_of_int k)
            in
            let solved = Csc_encode.apply sg enc model ~names in
            assert (Csc.csc_satisfied solved);
            if accept solved then finish (Solved solved) n_new
            else if rejected + 1 >= max_model_rejects then attempt (n_new + 1)
            else begin
              (* exclude this labeling's value bits and re-solve: the
                 caller found it unimplementable (e.g. its expansion
                 loses semi-modularity) *)
              let block = ref [] in
              for v = 1 to enc.Csc_encode.base_vars do
                block := (if model.(v) then -v else v) :: !block
              done;
              Cnf.add_clause enc.Csc_encode.cnf !block;
              models (rejected + 1)
            end)
          | Dpll.Unsat -> attempt (n_new + 1)
          | Dpll.Aborted r -> finish (Gave_up r) 0
        in
        models 0
      end
    in
    attempt lb
  end
