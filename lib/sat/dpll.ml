type abort_reason = Backtrack_limit | Time_limit
type result = Sat of bool array | Unsat | Aborted of abort_reason

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  backtracks : int;
  restarts : int;
  learned : int;
  elapsed : float;
}

exception Abort of abort_reason

(* ------------------------------------------------------------------ *)
(* CDCL solver: two-watched-literal propagation, first-UIP conflict     *)
(* analysis with clause learning, VSIDS-style activity decay seeded     *)
(* with Jeroslow-Wang scores, phase saving and Luby restarts.  Fully    *)
(* deterministic: no randomization anywhere, so a formula always gets   *)
(* the same model, the same trail and the same statistics.              *)
(* ------------------------------------------------------------------ *)

(* Growable int vector for watch lists and the clause database. *)
module Vec = struct
  type t = { mutable a : int array; mutable len : int }

  let create n = { a = Array.make (max n 4) 0; len = 0 }

  let push v x =
    if v.len = Array.length v.a then begin
      let a' = Array.make (2 * Array.length v.a) 0 in
      Array.blit v.a 0 a' 0 v.len;
      v.a <- a'
    end;
    v.a.(v.len) <- x;
    v.len <- v.len + 1
end

let var_decay = 1.0 /. 0.95
let restart_unit = 64
let rescale_at = 1e100
let rescale_by = 1e-100

(* Luby restart sequence 1,1,2,1,1,2,4,... (Luby-Sinclair-Zuckerman). *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

type cdcl = {
  nv : int;
  mutable cls : int array array; (* clause database, learned appended *)
  mutable n_cls : int;
  watches : Vec.t array; (* literal code -> clause indices watching it *)
  value : int array; (* 0 unassigned, 1 true, -1 false *)
  level : int array; (* decision level of the assignment *)
  reason : int array; (* antecedent clause index, -1 for decisions *)
  trail : int array;
  mutable trail_len : int;
  mutable qhead : int;
  lim : int array Stdlib.ref; (* trail position of each decision level *)
  mutable n_levels : int;
  saved_phase : bool array;
  activity : float array;
  mutable var_inc : float;
  heap : int array; (* max-activity binary heap of variables *)
  pos : int array; (* heap position of each variable, -1 absent *)
  mutable heap_len : int;
  seen : bool array; (* conflict-analysis scratch *)
  mutable s_decisions : int;
  mutable s_propagations : int;
  mutable s_conflicts : int;
  mutable s_backtracks : int;
  mutable s_restarts : int;
  mutable s_learned : int;
}

(* Literal codes for watch-list indexing: +v -> 2v, -v -> 2v+1. *)
let code l = if l > 0 then 2 * l else (2 * -l) + 1

let lit_value s l =
  let v = s.value.(abs l) in
  if v = 0 then 0 else if (l > 0) = (v > 0) then 1 else -1

(* ---------------- activity heap ---------------- *)

let heap_lt s a b =
  s.activity.(a) > s.activity.(b)
  || (s.activity.(a) = s.activity.(b) && a < b)

let rec sift_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_lt s s.heap.(i) s.heap.(p) then begin
      let t = s.heap.(i) in
      s.heap.(i) <- s.heap.(p);
      s.heap.(p) <- t;
      s.pos.(s.heap.(i)) <- i;
      s.pos.(s.heap.(p)) <- p;
      sift_up s p
    end
  end

let rec sift_down s i =
  let l = (2 * i) + 1 in
  if l < s.heap_len then begin
    let r = l + 1 in
    let c =
      if r < s.heap_len && heap_lt s s.heap.(r) s.heap.(l) then r else l
    in
    if heap_lt s s.heap.(c) s.heap.(i) then begin
      let t = s.heap.(i) in
      s.heap.(i) <- s.heap.(c);
      s.heap.(c) <- t;
      s.pos.(s.heap.(i)) <- i;
      s.pos.(s.heap.(c)) <- c;
      sift_down s c
    end
  end

let heap_insert s v =
  if s.pos.(v) < 0 then begin
    s.heap.(s.heap_len) <- v;
    s.pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    sift_up s s.pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  s.heap.(0) <- s.heap.(s.heap_len);
  s.pos.(s.heap.(0)) <- 0;
  s.pos.(v) <- -1;
  if s.heap_len > 0 then sift_down s 0;
  v

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > rescale_at then begin
    for u = 1 to s.nv do
      s.activity.(u) <- s.activity.(u) *. rescale_by
    done;
    s.var_inc <- s.var_inc *. rescale_by
  end;
  if s.pos.(v) >= 0 then sift_up s s.pos.(v)

(* ---------------- clause database ---------------- *)

let add_clause_raw s cl =
  if s.n_cls = Array.length s.cls then begin
    let a' = Array.make (2 * max 1 (Array.length s.cls)) [||] in
    Array.blit s.cls 0 a' 0 s.n_cls;
    s.cls <- a'
  end;
  let ci = s.n_cls in
  s.cls.(ci) <- cl;
  s.n_cls <- ci + 1;
  Vec.push s.watches.(code cl.(0)) ci;
  Vec.push s.watches.(code cl.(1)) ci;
  ci

(* ---------------- assignments ---------------- *)

let assign s l reason =
  s.value.(abs l) <- (if l > 0 then 1 else -1);
  s.level.(abs l) <- s.n_levels;
  s.reason.(abs l) <- reason;
  s.saved_phase.(abs l) <- l > 0;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

(* Enqueue at the root level; false on immediate inconsistency. *)
let enqueue_root s l =
  match lit_value s l with
  | 1 -> true
  | -1 -> false
  | _ ->
    assign s l (-1);
    true

(* Undo all assignments above decision level [lvl]. *)
let backjump s lvl =
  if s.n_levels > lvl then begin
    let bound = !(s.lim).(lvl) in
    while s.trail_len > bound do
      s.trail_len <- s.trail_len - 1;
      let v = abs s.trail.(s.trail_len) in
      s.value.(v) <- 0;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.qhead <- s.trail_len;
    s.n_levels <- lvl
  end

(* ---------------- propagation ---------------- *)

(* Propagate the trail from qhead; returns the conflicting clause index
   or -1.  Invariant: a clause's two watched literals are cl.(0) and
   cl.(1); the watch list of literal l holds the clauses watching l. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.qhead < s.trail_len do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.s_propagations <- s.s_propagations + 1;
    let false_lit = -p in
    let wl = s.watches.(code false_lit) in
    let n = wl.Vec.len in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let ci = wl.Vec.a.(!i) in
      incr i;
      let cl = s.cls.(ci) in
      if cl.(0) = false_lit then begin
        cl.(0) <- cl.(1);
        cl.(1) <- false_lit
      end;
      if lit_value s cl.(0) = 1 then begin
        (* satisfied by the other watch: keep *)
        wl.Vec.a.(!j) <- ci;
        incr j
      end
      else begin
        let len = Array.length cl in
        let k = ref 2 in
        while !k < len && lit_value s cl.(!k) = -1 do
          incr k
        done;
        if !k < len then begin
          (* move the watch to a non-false literal *)
          cl.(1) <- cl.(!k);
          cl.(!k) <- false_lit;
          Vec.push s.watches.(code cl.(1)) ci
        end
        else if lit_value s cl.(0) = -1 then begin
          (* every literal false: conflict; keep the remaining watches *)
          confl := ci;
          wl.Vec.a.(!j) <- ci;
          incr j;
          while !i < n do
            wl.Vec.a.(!j) <- wl.Vec.a.(!i);
            incr i;
            incr j
          done
        end
        else begin
          (* unit under the assignment *)
          wl.Vec.a.(!j) <- ci;
          incr j;
          assign s cl.(0) ci
        end
      end
    done;
    wl.Vec.len <- !j
  done;
  !confl

(* ---------------- conflict analysis (first UIP) ---------------- *)

let analyze s confl =
  let learnt = ref [] in
  let btlevel = ref 0 in
  let counter = ref 0 in
  let p = ref 0 in
  let confl = ref confl in
  let index = ref s.trail_len in
  let continue = ref true in
  while !continue do
    let cl = s.cls.(!confl) in
    (* in a reason clause, position 0 is the propagated literal itself *)
    for k = (if !p = 0 then 0 else 1) to Array.length cl - 1 do
      let q = cl.(k) in
      let v = abs q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        bump_var s v;
        if s.level.(v) = s.n_levels then incr counter
        else begin
          learnt := q :: !learnt;
          if s.level.(v) > !btlevel then btlevel := s.level.(v)
        end
      end
    done;
    decr index;
    while not s.seen.(abs s.trail.(!index)) do
      decr index
    done;
    p := s.trail.(!index);
    s.seen.(abs !p) <- false;
    decr counter;
    if !counter = 0 then continue := false else confl := s.reason.(abs !p)
  done;
  let learnt = Array.of_list (- !p :: !learnt) in
  for k = 1 to Array.length learnt - 1 do
    s.seen.(abs learnt.(k)) <- false
  done;
  (learnt, !btlevel)

(* After backjumping, install the learned clause: the asserting literal
   is learnt.(0) and the second watch must sit at the backjump level. *)
let learn s learnt btlevel =
  s.s_learned <- s.s_learned + 1;
  if Array.length learnt = 1 then assign s learnt.(0) (-1)
  else begin
    let w = ref 1 in
    (try
       for k = 1 to Array.length learnt - 1 do
         if s.level.(abs learnt.(k)) = btlevel then begin
           w := k;
           raise_notrace Exit
         end
       done
     with Exit -> ());
    let t = learnt.(1) in
    learnt.(1) <- learnt.(!w);
    learnt.(!w) <- t;
    let ci = add_clause_raw s learnt in
    assign s learnt.(0) ci
  end

(* ---------------- top level ---------------- *)

let solve ?backtrack_limit ?(time_limit = infinity) f =
  Counter.bump Counter.solver;
  let t0 = Sys.time () in
  let nv = Cnf.n_vars f in
  let clauses = Cnf.clauses f in
  let s =
    {
      nv;
      cls = Array.make (max 1 (Array.length clauses)) [||];
      n_cls = 0;
      watches = Array.init ((2 * (nv + 1)) + 2) (fun _ -> Vec.create 4);
      value = Array.make (nv + 1) 0;
      level = Array.make (nv + 1) 0;
      reason = Array.make (nv + 1) (-1);
      trail = Array.make (max nv 1) 0;
      trail_len = 0;
      qhead = 0;
      lim = Stdlib.ref (Array.make 16 0);
      n_levels = 0;
      saved_phase = Array.make (nv + 1) false;
      activity = Array.make (nv + 1) 0.0;
      var_inc = 1.0;
      heap = Array.make (max nv 1) 0;
      pos = Array.make (nv + 1) (-1);
      heap_len = 0;
      seen = Array.make (nv + 1) false;
      s_decisions = 0;
      s_propagations = 0;
      s_conflicts = 0;
      s_backtracks = 0;
      s_restarts = 0;
      s_learned = 0;
    }
  in
  let finish result =
    ( result,
      {
        decisions = s.s_decisions;
        propagations = s.s_propagations;
        conflicts = s.s_conflicts;
        backtracks = s.s_backtracks;
        restarts = s.s_restarts;
        learned = s.s_learned;
        elapsed = Sys.time () -. t0;
      } )
  in
  (* Jeroslow-Wang scores seed the activity order, so early decisions
     match the proven static heuristic until conflicts teach better. *)
  Array.iter
    (fun cl ->
      let w = 2.0 ** float_of_int (-Array.length cl) in
      Array.iter (fun l -> s.activity.(abs l) <- s.activity.(abs l) +. w) cl)
    clauses;
  for v = 1 to nv do
    heap_insert s v
  done;
  if Cnf.has_empty_clause f then finish Unsat
  else begin
    (* load the database: units go straight to the root trail *)
    let root_ok = ref true in
    Array.iter
      (fun cl ->
        if Array.length cl = 1 then root_ok := !root_ok && enqueue_root s cl.(0)
        else if Array.length cl > 1 then ignore (add_clause_raw s (Array.copy cl)))
      clauses;
    if (not !root_ok) || propagate s >= 0 then finish Unsat
    else begin
      let new_level () =
        if s.n_levels + 1 >= Array.length !(s.lim) then begin
          let a' = Array.make (2 * Array.length !(s.lim)) 0 in
          Array.blit !(s.lim) 0 a' 0 (Array.length !(s.lim));
          s.lim := a'
        end;
        s.n_levels <- s.n_levels + 1;
        !(s.lim).(s.n_levels - 1) <- s.trail_len
      in
      (* backjump works with 1-based levels stored at lim.(lvl) *)
      let decide () =
        let rec next () =
          if s.heap_len = 0 then None
          else begin
            let v = heap_pop s in
            if s.value.(v) = 0 then Some v else next ()
          end
        in
        next ()
      in
      try
        let restart_budget = ref (restart_unit * luby 0) in
        let since_restart = ref 0 in
        let rec loop () =
          if
            (s.s_decisions + s.s_conflicts) land 127 = 0
            && Sys.time () -. t0 > time_limit
          then raise (Abort Time_limit);
          let confl = propagate s in
          if confl >= 0 then begin
            s.s_conflicts <- s.s_conflicts + 1;
            if s.n_levels = 0 then raise Exit (* conflict under no decision *)
            else begin
              s.s_backtracks <- s.s_backtracks + 1;
              (match backtrack_limit with
              | Some lim when s.s_backtracks > lim ->
                raise (Abort Backtrack_limit)
              | _ -> ());
              let learnt, btlevel = analyze s confl in
              backjump s btlevel;
              learn s learnt btlevel;
              s.var_inc <- s.var_inc *. var_decay;
              incr since_restart;
              loop ()
            end
          end
          else if !since_restart >= !restart_budget && s.n_levels > 0 then begin
            s.s_restarts <- s.s_restarts + 1;
            since_restart := 0;
            restart_budget := restart_unit * luby s.s_restarts;
            backjump s 0;
            loop ()
          end
          else begin
            match decide () with
            | None ->
              finish
                (Sat (Array.init (nv + 1) (fun v -> v > 0 && s.value.(v) > 0)))
            | Some v ->
              s.s_decisions <- s.s_decisions + 1;
              new_level ();
              assign s (if s.saved_phase.(v) then v else -v) (-1);
              loop ()
          end
        in
        loop ()
      with
      | Exit -> finish Unsat
      | Abort r -> finish (Aborted r)
    end
  end

(* ------------------------------------------------------------------ *)
(* The original counter-based DPLL, kept as [solve_basic]: the          *)
(* differential-testing oracle for the CDCL solver above, and the       *)
(* "before" side of the E12 CNF microbenchmarks.  Chronological         *)
(* backtracking, occurrence-list propagation, static Jeroslow-Wang     *)
(* order, phase saving.                                                 *)
(* ------------------------------------------------------------------ *)

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

let solve_basic ?backtrack_limit ?(time_limit = infinity) f =
  Counter.bump Counter.solver;
  let t0 = Sys.time () in
  let finish s result =
    ( result,
      {
        decisions = s.b_decisions;
        propagations = s.b_propagations;
        conflicts = s.b_conflicts;
        backtracks = s.b_backtracks;
        restarts = 0;
        learned = 0;
        elapsed = Sys.time () -. t0;
      } )
  in
  let s = make_basic f in
  if Cnf.has_empty_clause f then finish s Unsat
  else begin
    (* Top-level units. *)
    let root_ok = ref true in
    Array.iter
      (fun cl ->
        if Array.length cl = 1 then root_ok := !root_ok && basic_enqueue s cl.(0))
      s.b_clauses;
    if (not !root_ok) || not (basic_propagate s) then finish s Unsat
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
          if s.b_propagations land 1023 = 0 && Sys.time () -. t0 > time_limit
          then raise (Abort Time_limit);
          match pick_var () with
          | None ->
            finish s
              (Sat (Array.init (s.b_nv + 1) (fun v -> v > 0 && s.b_value.(v) > 0)))
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
                  raise (Abort Backtrack_limit)
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
      | Exit -> finish s Unsat
      | Abort r -> finish s (Aborted r)
    end
  end

let satisfiable f =
  match solve f with
  | Sat m, _ -> Some m
  | Unsat, _ -> None
  | Aborted _, _ -> failwith "Dpll.satisfiable: aborted"

let pp_stats ppf st =
  Format.fprintf ppf
    "%d decisions, %d propagations, %d conflicts, %d backtracks, %d restarts, \
     %d learned, %.3fs"
    st.decisions st.propagations st.conflicts st.backtracks st.restarts
    st.learned st.elapsed

let pp_result ppf = function
  | Sat _ -> Format.fprintf ppf "SAT"
  | Unsat -> Format.fprintf ppf "UNSAT"
  | Aborted Backtrack_limit -> Format.fprintf ppf "ABORTED(backtrack limit)"
  | Aborted Time_limit -> Format.fprintf ppf "ABORTED(time limit)"
