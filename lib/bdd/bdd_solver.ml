type result = Sat of bool array | Unsat | Blowup

exception Too_big

let solve_with_stats ?(node_limit = 300_000) cnf =
  Counter.bump Counter.solver;
  (* the clause-product build is the one blowup-prone workload in the
     tree: worth a computed table of up to 2^16 entries, four words
     each.  A module formula needs a fraction of that (pulsers-5's: 41
     clauses over 10 variables, 470 nodes), and a 2 MB table per call
     was the largest block the insertion allocated, so the table grows
     with the formula (variables times clauses) from the default 2^12.
     The table only memoizes: the nodes built, and so the verdict and
     the model, do not depend on its size. *)
  let mgr =
    let size = Cnf.n_vars cnf * Cnf.n_clauses cnf in
    let rec bits b = if b >= 16 || 1 lsl b >= size then b else bits (b + 1) in
    Bdd.manager ~cache_bits:(bits 12) ()
  in
  let finish r = (r, Bdd.stats mgr) in
  if Cnf.has_empty_clause cnf then finish Unsat
  else begin
    let clause_bdd clause =
      (* literals within a clause are disjoint cubes: build the clause
         bottom-up in one pass instead of one [bor] per literal *)
      Bdd.disj mgr
        (List.map
           (fun l -> if l > 0 then Bdd.var mgr l else Bdd.nvar mgr (-l))
           (Array.to_list clause))
    in
    match
      Array.fold_left
        (fun acc clause ->
          let acc = Bdd.band mgr acc (clause_bdd clause) in
          if Bdd.n_nodes mgr > node_limit then raise Too_big;
          acc)
        Bdd.bdd_true (Cnf.clauses cnf)
    with
    | product ->
      finish
        (match Bdd.any_sat mgr product with
        | None -> Unsat
        | Some path ->
          (* don't-care variables default to false: the quiet corner *)
          let model = Array.make (Cnf.n_vars cnf + 1) false in
          List.iter (fun (v, b) -> model.(v) <- b) path;
          Sat model)
    | exception Too_big -> finish Blowup
  end

let solve ?node_limit cnf = fst (solve_with_stats ?node_limit cnf)
