(* The original counter-based DPLL: the differential-testing oracle for
   the CDCL solver in [Dpll], and the "before" side of the E12 CNF
   microbenchmarks.  Chronological backtracking, occurrence-list
   propagation, static Jeroslow-Wang order, phase saving. *)

exception Abort of Dpll.abort_reason


type basic = {
  b_nv : int;
  b_clauses : int array array;
  occ_pos : int list array; (* var -> clauses containing +v *)
  occ_neg : int list array;
  b_value : int array; (* 0 unassigned, 1 true, -1 false *)
  n_false : int array; (* per clause *)
  n_true : int array;
  b_trail : int array; (* literals in assignment order *)
  mutable b_trail_len : int;
  mutable b_qhead : int;
  b_saved_phase : bool array;
  order : int array; (* variables, best first *)
  mutable order_head : int;
  mutable b_decisions : int;
  mutable b_propagations : int;
  mutable b_conflicts : int;
  mutable b_backtracks : int;
}

let basic_lit_value s l =
  let v = s.b_value.(abs l) in
  if v = 0 then 0 else if (l > 0) = (v > 0) then 1 else -1

let make_basic f =
  let nv = Cnf.n_vars f in
  let clauses = Cnf.clauses f in
  let occ_pos = Array.make (nv + 1) [] and occ_neg = Array.make (nv + 1) [] in
  Array.iteri
    (fun ci cl ->
      Array.iter
        (fun l ->
          if l > 0 then occ_pos.(l) <- ci :: occ_pos.(l)
          else occ_neg.(-l) <- ci :: occ_neg.(-l))
        cl)
    clauses;
  (* Static Jeroslow-Wang branching order. *)
  let score = Array.make (nv + 1) 0.0 in
  Array.iter
    (fun cl ->
      let w = 2.0 ** float_of_int (-Array.length cl) in
      Array.iter (fun l -> score.(abs l) <- score.(abs l) +. w) cl)
    clauses;
  let order = Array.init nv (fun i -> i + 1) in
  Array.sort (fun a b -> compare score.(b) score.(a)) order;
  {
    b_nv = nv;
    b_clauses = clauses;
    occ_pos;
    occ_neg;
    b_value = Array.make (nv + 1) 0;
    n_false = Array.make (Array.length clauses) 0;
    n_true = Array.make (Array.length clauses) 0;
    b_trail = Array.make (max nv 1) 0;
    b_trail_len = 0;
    b_qhead = 0;
    b_saved_phase = Array.make (nv + 1) false;
    order;
    order_head = 0;
    b_decisions = 0;
    b_propagations = 0;
    b_conflicts = 0;
    b_backtracks = 0;
  }

(* Enqueue a literal as true; returns false on immediate inconsistency. *)
let basic_enqueue s l =
  match basic_lit_value s l with
  | 1 -> true
  | -1 -> false
  | _ ->
    s.b_value.(abs l) <- (if l > 0 then 1 else -1);
    s.b_saved_phase.(abs l) <- l > 0;
    s.b_trail.(s.b_trail_len) <- l;
    s.b_trail_len <- s.b_trail_len + 1;
    true

(* Propagate everything on the trail from qhead; returns true if no
   conflict was found. *)
let basic_propagate s =
  let ok = ref true in
  while !ok && s.b_qhead < s.b_trail_len do
    let l = s.b_trail.(s.b_qhead) in
    s.b_qhead <- s.b_qhead + 1;
    s.b_propagations <- s.b_propagations + 1;
    (* Clauses satisfied by l. *)
    List.iter
      (fun ci -> s.n_true.(ci) <- s.n_true.(ci) + 1)
      (if l > 0 then s.occ_pos.(l) else s.occ_neg.(-l));
    (* Clauses in which l is false. *)
    let falsified = if l > 0 then s.occ_neg.(l) else s.occ_pos.(-l) in
    List.iter
      (fun ci ->
        s.n_false.(ci) <- s.n_false.(ci) + 1;
        if !ok && s.n_true.(ci) = 0 then begin
          let len = Array.length s.b_clauses.(ci) in
          if s.n_false.(ci) = len then ok := false
          else if s.n_false.(ci) = len - 1 then begin
            (* find the single unassigned literal *)
            let cl = s.b_clauses.(ci) in
            let unit = ref 0 in
            Array.iter (fun l' -> if basic_lit_value s l' = 0 then unit := l') cl;
            if !unit <> 0 then ok := !ok && basic_enqueue s !unit
          end
        end)
      falsified
  done;
  !ok

(* Undo trail entries down to (and excluding) position [pos]. *)
let basic_undo_to s pos =
  while s.b_trail_len > pos do
    s.b_trail_len <- s.b_trail_len - 1;
    let l = s.b_trail.(s.b_trail_len) in
    if s.b_trail_len < s.b_qhead then begin
      List.iter
        (fun ci -> s.n_true.(ci) <- s.n_true.(ci) - 1)
        (if l > 0 then s.occ_pos.(l) else s.occ_neg.(-l));
      List.iter
        (fun ci -> s.n_false.(ci) <- s.n_false.(ci) - 1)
        (if l > 0 then s.occ_neg.(l) else s.occ_pos.(-l))
    end;
    s.b_value.(abs l) <- 0
  done;
  if s.b_qhead > s.b_trail_len then s.b_qhead <- s.b_trail_len;
  s.order_head <- 0

type decision = {
  var : int;
  first_phase : bool;
  pos : int;
  mutable flipped : bool;
}

let solve ?backtrack_limit ?(deadline = Deadline.none) f =
  Counter.bump Counter.solver;
  let finish s result =
    ( result,
      {
        Dpll.decisions = s.b_decisions;
        propagations = s.b_propagations;
        conflicts = s.b_conflicts;
        backtracks = s.b_backtracks;
        restarts = 0;
        learned = 0;
      } )
  in
  let s = make_basic f in
  if Cnf.has_empty_clause f then finish s Dpll.Unsat
  else begin
    (* Top-level units. *)
    let root_ok = ref true in
    Array.iter
      (fun cl ->
        if Array.length cl = 1 then root_ok := !root_ok && basic_enqueue s cl.(0))
      s.b_clauses;
    if (not !root_ok) || not (basic_propagate s) then finish s Dpll.Unsat
    else begin
      let decisions : decision list ref = ref [] in
      let pick_var () =
        let n = Array.length s.order in
        let rec go i =
          if i >= n then None
          else if s.b_value.(s.order.(i)) = 0 then begin
            s.order_head <- i + 1;
            Some s.order.(i)
          end
          else go (i + 1)
        in
        go s.order_head
      in
      try
        let rec search () =
          if s.b_propagations land 1023 = 0 && Deadline.expired deadline
          then raise (Abort Dpll.Time_limit);
          match pick_var () with
          | None ->
            finish s
              (Dpll.Sat (Array.init (s.b_nv + 1) (fun v -> v > 0 && s.b_value.(v) > 0)))
          | Some v ->
            s.b_decisions <- s.b_decisions + 1;
            let phase = s.b_saved_phase.(v) in
            let d =
              { var = v; first_phase = phase; pos = s.b_trail_len; flipped = false }
            in
            decisions := d :: !decisions;
            let lit = if phase then v else -v in
            if basic_enqueue s lit && basic_propagate s then search ()
            else resolve_conflict ()
        and resolve_conflict () =
          s.b_conflicts <- s.b_conflicts + 1;
          let rec unwind () =
            match !decisions with
            | [] -> raise Exit (* unsat *)
            | d :: rest ->
              if d.flipped then begin
                decisions := rest;
                basic_undo_to s d.pos;
                unwind ()
              end
              else begin
                s.b_backtracks <- s.b_backtracks + 1;
                (match backtrack_limit with
                | Some lim when s.b_backtracks > lim ->
                  raise (Abort Dpll.Backtrack_limit)
                | _ -> ());
                basic_undo_to s d.pos;
                d.flipped <- true;
                let lit = if d.first_phase then -d.var else d.var in
                if basic_enqueue s lit && basic_propagate s then () else unwind ()
              end
          in
          (try unwind () with Exit -> raise Exit);
          search ()
        in
        search ()
      with
      | Exit -> finish s Dpll.Unsat
      | Abort r -> finish s (Dpll.Aborted r)
    end
  end
