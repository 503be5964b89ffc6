type formula_size = Csc_search.formula_size = { vars : int; clauses : int }
type outcome = Solved of Sg.t | Gave_up of Dpll.abort_reason

type report = {
  outcome : outcome;
  n_new : int;
  formulas : formula_size list;
}

(* Signals tried beyond the lower bound before giving up. *)
let max_extra = 6

let solve ?backtrack_limit ?time_limit ?accept sg =
  let deadline = Deadline.of_limit time_limit in
  let finish outcome n_new formulas = { outcome; n_new; formulas } in
  if Csc.csc_satisfied sg then finish (Solved sg) 0 []
  else begin
    let lb = max 1 (Csc.lower_bound sg) in
    let realize enc model =
      let names =
        Array.init enc.Csc_encode.n_new (fun k -> "csc" ^ string_of_int k)
      in
      let solved = Csc_encode.apply sg enc model ~names in
      assert (Csc.csc_satisfied solved);
      solved
    in
    let r =
      Csc_search.search ?accept
        ~ladder:(List.init (max_extra + 1) (fun i -> (lb + i, `Strict)))
        ~propose:(Csc_search.dpll ?backtrack_limit ~deadline)
        ~realize sg
    in
    match r.Csc_search.outcome with
    | Csc_search.Found (solved, n_new) ->
      finish (Solved solved) n_new r.Csc_search.formulas
    | Csc_search.Gave_up reason -> finish (Gave_up reason) 0 r.Csc_search.formulas
  end
