type outcome =
  | Solved of { module_sg : Sg.t; new_extras : Sg.extra array }
  | Gave_up of Dpll.abort_reason

type report = {
  outcome : outcome;
  formulas : Csc_search.formula_size list;
  solver_stats : Dpll.stats list;
}

(* Hybrid SAT strategy.  CDCL decides: a quick capped [Dpll.solve] runs
   first on every encoding, and a refuted one moves straight to the next
   encoding.  The modular formulas are small, so refuting one costs a
   fraction of a millisecond, where WalkSAT, which cannot prove
   unsatisfiability, would spend its whole flip budget.  WalkSAT (the
   authors' own SAT line of work) only chooses among the models of a
   formula CDCL found satisfiable or could not decide: started from the
   all-false corner it repairs its way to a model that keeps state
   signals quiet wherever the constraints allow, which empirically yields
   the tightest excitation regions and the smallest covers, so its model
   is preferred.  An undecided formula WalkSAT cannot satisfy gets one
   larger capped CDCL run; if that is inconclusive too, the search
   escalates to one more state signal — always sound (extra signals never
   hurt correctness, only optimality), and the signal bound keeps the
   loop terminating.  The loop itself (encode, propose, block a rejected
   labeling, climb) is [Csc_search.search]; this module supplies its
   ladder, this model source and the module-level normalization. *)

let quick_backtrack_cap = 50_000

let walksat_model cnf =
  fst
    (Walksat.solve ~seed:1 ~init:`False
       ~max_flips:(20_000 + (200 * Cnf.n_vars cnf))
       ~max_tries:3 cnf)

let solve_pairs ?backtrack_limit ?deadline ?(max_new = 6) ?(backend = `Sat)
    ?(normalize = true) ?accept ~resolve sg =
  let stats = ref [] in
  let finish outcome formulas =
    { outcome; formulas; solver_stats = List.rev !stats }
  in
  if resolve = [] then finish (Solved { module_sg = sg; new_extras = [||] }) []
  else begin
    let n_before = Sg.n_extras sg in
    (* Apply a model, then normalize: shrink each new signal's excitation
       region while the module is still small — solver models are correct
       but arbitrarily shaped, and this is where shape is cheapest to
       fix. *)
    let realize enc model =
      let names = Array.init enc.Csc_encode.n_new (Printf.sprintf "__m%d") in
      let solved = ref (Csc_encode.apply sg enc model ~names) in
      if normalize then
        for index = n_before to Sg.n_extras !solved - 1 do
          solved := Region_minimize.minimize_extra !solved ~index
        done;
      !solved
    in
    (* One model from the backend chain: BDD when selected, else the
       quick CDCL call decides and WalkSAT, where enabled, picks the
       model of a formula not refuted. *)
    let propose cnf =
      let bdd_result =
        match backend with
        | `Sat | `Dpll -> Bdd_solver.Blowup (* skip: decide with SAT *)
        | `Bdd -> Bdd_solver.solve cnf
      in
      match bdd_result with
      | Bdd_solver.Sat model -> Csc_search.Model model
      | Bdd_solver.Unsat -> Csc_search.Unsat
      | Bdd_solver.Blowup -> (
        let quick, st =
          Dpll.solve ~backtrack_limit:quick_backtrack_cap ?deadline cnf
        in
        stats := st :: !stats;
        let walksat () = if backend = `Dpll then None else walksat_model cnf in
        match quick with
        | Dpll.Unsat -> Csc_search.Unsat
        | Dpll.Sat model ->
          Csc_search.Model (Option.value (walksat ()) ~default:model)
        | Dpll.Aborted r -> (
          match (walksat (), r) with
          | Some model, _ -> Csc_search.Model model
          | None, Dpll.Backtrack_limit -> (
            let cap =
              max quick_backtrack_cap
                (Option.value backtrack_limit ~default:500_000)
            in
            let result, st = Dpll.solve ~backtrack_limit:cap ?deadline cnf in
            stats := st :: !stats;
            match result with
            | Dpll.Sat model -> Csc_search.Model model
            | Dpll.Unsat | Dpll.Aborted Dpll.Backtrack_limit -> Csc_search.Unsat
            | Dpll.Aborted r -> Csc_search.Abort r)
          | None, r -> Csc_search.Abort r))
    in
    (* Per signal count, the strict encoding is tried before the loose
       one: strict models keep state signals stable wherever possible
       (clean regions, small covers), while the loose relaxation saves
       signals on modules where strict separation is infeasible. *)
    let ladder =
      List.concat
        (List.init max_new (fun i -> [ (i + 1, `Strict); (i + 1, `Loose) ]))
    in
    let r =
      Csc_search.search ~resolve ?accept ~ladder ~propose ~realize sg
    in
    match r.Csc_search.outcome with
    | Csc_search.Found (solved, _) ->
      let new_extras =
        Array.sub (Sg.extras solved) n_before (Sg.n_extras solved - n_before)
      in
      finish (Solved { module_sg = solved; new_extras }) r.Csc_search.formulas
    | Csc_search.Gave_up reason -> finish (Gave_up reason) r.Csc_search.formulas
  end

let solve ?backtrack_limit ?deadline ?max_new ?backend ?normalize ?accept
    ~output module_sg =
  let resolve =
    List.sort_uniq compare
      (Csc.output_conflict_pairs module_sg ~output
      @ Csc.orphan_conflict_pairs module_sg)
  in
  solve_pairs ?backtrack_limit ?deadline ?max_new ?backend ?normalize
    ?accept ~resolve module_sg
