type stats = { flips : int; tries : int }

(* Incremental WalkSAT.  Occurrence lists are precomputed as int arrays;
   per-variable break counts are maintained incrementally through a
   critical-variable index (for every clause with exactly one true
   literal, [crit] names that literal's variable), so the greedy step
   reads [break_.(v)] instead of re-scanning the variable's occurrence
   lists.  The maintained counts equal the old per-flip recomputation
   exactly, every tie-break and random draw is unchanged, so the same
   seed yields the same flip trajectory, the same model and the same
   statistics as the historical implementation — only faster. *)

(* Probability of a random-walk flip. *)
let noise = 0.5

let solve ?(seed = 0) ?(init = `Random) ?max_flips ?(max_tries = 10) f =
  Counter.bump Counter.solver;
  let rng = Random.State.make [| seed |] in
  let nv = Cnf.n_vars f in
  let clauses = Cnf.clauses f in
  let ncl = Array.length clauses in
  let max_flips =
    match max_flips with Some m -> m | None -> max 10_000 (100 * nv)
  in
  (* occurrence lists as packed arrays: better locality than int lists,
     built in reverse-insertion order to match the historical lists *)
  let occ_pos = Array.make (nv + 1) [||] and occ_neg = Array.make (nv + 1) [||] in
  let cnt_pos = Array.make (nv + 1) 0 and cnt_neg = Array.make (nv + 1) 0 in
  Array.iter
    (fun cl ->
      Array.iter
        (fun l ->
          if l > 0 then cnt_pos.(l) <- cnt_pos.(l) + 1
          else cnt_neg.(-l) <- cnt_neg.(-l) + 1)
        cl)
    clauses;
  for v = 1 to nv do
    occ_pos.(v) <- Array.make cnt_pos.(v) 0;
    occ_neg.(v) <- Array.make cnt_neg.(v) 0
  done;
  (* fill back-to-front so index order equals the historical cons order *)
  Array.iteri
    (fun ci cl ->
      Array.iter
        (fun l ->
          if l > 0 then begin
            cnt_pos.(l) <- cnt_pos.(l) - 1;
            occ_pos.(l).(cnt_pos.(l)) <- ci
          end
          else begin
            cnt_neg.(-l) <- cnt_neg.(-l) - 1;
            occ_neg.(-l).(cnt_neg.(-l)) <- ci
          end)
        cl)
    clauses;
  let value = Array.make (nv + 1) false in
  let n_true = Array.make ncl 0 in
  let crit = Array.make (max ncl 1) 0 in (* sole true literal's variable *)
  let break_ = Array.make (nv + 1) 0 in (* clauses critically held by v *)
  (* indices of unsatisfied clauses, as a set with positions *)
  let unsat = Array.make (max ncl 1) 0 in
  let unsat_pos = Array.make (max ncl 1) (-1) in
  let n_unsat = ref 0 in
  let lit_true l = if l > 0 then value.(l) else not value.(-l) in
  let mark_unsat ci =
    if unsat_pos.(ci) < 0 then begin
      unsat.(!n_unsat) <- ci;
      unsat_pos.(ci) <- !n_unsat;
      incr n_unsat
    end
  in
  let mark_sat ci =
    let p = unsat_pos.(ci) in
    if p >= 0 then begin
      decr n_unsat;
      let last = unsat.(!n_unsat) in
      unsat.(p) <- last;
      unsat_pos.(last) <- p;
      unsat_pos.(ci) <- -1
    end
  in
  let sole_true_var cl =
    let v = ref 0 in
    (try
       Array.iter
         (fun l ->
           if lit_true l then begin
             v := abs l;
             raise_notrace Exit
           end)
         cl
     with Exit -> ());
    !v
  in
  let init_counts () =
    Array.fill unsat_pos 0 (Array.length unsat_pos) (-1);
    Array.fill break_ 0 (nv + 1) 0;
    n_unsat := 0;
    Array.iteri
      (fun ci cl ->
        let k =
          Array.fold_left (fun a l -> if lit_true l then a + 1 else a) 0 cl
        in
        n_true.(ci) <- k;
        if k = 0 then mark_unsat ci
        else if k = 1 then begin
          let v = sole_true_var cl in
          crit.(ci) <- v;
          break_.(v) <- break_.(v) + 1
        end)
      clauses
  in
  let flip v =
    value.(v) <- not value.(v);
    let now_true = if value.(v) then occ_pos.(v) else occ_neg.(v) in
    let now_false = if value.(v) then occ_neg.(v) else occ_pos.(v) in
    Array.iter
      (fun ci ->
        let k = n_true.(ci) + 1 in
        n_true.(ci) <- k;
        if k = 1 then begin
          (* v is now the clause's only support *)
          crit.(ci) <- v;
          break_.(v) <- break_.(v) + 1;
          mark_sat ci
        end
        else if k = 2 then begin
          (* the previous sole support is no longer critical *)
          let u = crit.(ci) in
          break_.(u) <- break_.(u) - 1
        end)
      now_true;
    Array.iter
      (fun ci ->
        let k = n_true.(ci) - 1 in
        n_true.(ci) <- k;
        if k = 0 then begin
          (* v was the sole support and just withdrew it *)
          break_.(v) <- break_.(v) - 1;
          mark_unsat ci
        end
        else if k = 1 then begin
          let u = sole_true_var clauses.(ci) in
          crit.(ci) <- u;
          break_.(u) <- break_.(u) + 1
        end)
      now_false
  in
  let total_flips = ref 0 in
  let result = ref None in
  let tries = ref 0 in
  (try
     if Cnf.has_empty_clause f then raise Exit;
     for _try = 1 to max_tries do
       incr tries;
       (* The first try may start from a caller-chosen polarity: for the
          CSC encodings an all-false start means "every state signal
          stable at 0", and the search only raises what the constraints
          force — producing far tighter excitation regions than a random
          start.  Retries always randomize. *)
       for v = 1 to nv do
         value.(v) <-
           (match init with
           | `False when !tries = 1 -> false
           | `False | `Random -> Random.State.bool rng)
       done;
       init_counts ();
       let fl = ref 0 in
       while !n_unsat > 0 && !fl < max_flips do
         incr fl;
         incr total_flips;
         let ci = unsat.(Random.State.int rng !n_unsat) in
         let cl = clauses.(ci) in
         let v =
           if Random.State.float rng 1.0 < noise then
             abs cl.(Random.State.int rng (Array.length cl))
           else begin
             let best = ref (abs cl.(0)) and best_b = ref max_int in
             Array.iter
               (fun l ->
                 let b = break_.(abs l) in
                 if b < !best_b then begin
                   best_b := b;
                   best := abs l
                 end)
               cl;
             !best
           end
         in
         flip v
       done;
       if !n_unsat = 0 then begin
         result := Some (Array.copy value);
         raise Exit
       end
     done
   with Exit -> ());
  (!result, { flips = !total_flips; tries = !tries })
