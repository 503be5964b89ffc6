(* The copies of each state.  Expanding one extra at a time splits
   every state once per extra excited there, A half before B half, and
   later levels copy values to both halves; so the final copies of [m]
   are indexed by a j-bit number over its j excited extras, extra 0 the
   most significant bit and 0 the A half.  [pos.(i).(m)] is the
   copy-index bit of extra [i] at [m] (-1 when stable there), and
   [first.(m)] the number of copies of the states before [m]. *)
type layout = { pos : int array array; width : int array; first : int array }

let layout sg extras =
  let k = Array.length extras and n = Sg.n_states sg in
  let pos = Array.make_matrix k n (-1) in
  let width = Array.make n 0 in
  for m = 0 to n - 1 do
    for i = k - 1 downto 0 do
      if Fourval.excited extras.(i).Sg.values.(m) then begin
        pos.(i).(m) <- width.(m);
        width.(m) <- width.(m) + 1
      end
    done
  done;
  let first = Array.make (n + 1) 0 in
  for m = 0 to n - 1 do
    first.(m + 1) <- first.(m) + (1 lsl width.(m))
  done;
  { pos; width; first }

(* The value of extra [i] in copy [c] of [m]: its stable value, or the
   copy bit for [Up] and its complement for [Dn]. *)
let extra_bit extras l i m c =
  let b_half = l.pos.(i).(m) >= 0 && c land (1 lsl l.pos.(i).(m)) <> 0 in
  match extras.(i).Sg.values.(m) with
  | Fourval.V0 -> false
  | Fourval.V1 -> true
  | Fourval.Up -> b_half
  | Fourval.Dn -> not b_half

(* The re-routing of an original edge: a source leaving an excited
   extra's region ([Up → V1], [Dn → V0]) is its B copy, a destination
   entering one its A copy, and each extra concurrent along the edge
   ([Up → Up], [Dn → Dn]) adds one free bit shared by both ends.
   Returns the leaving bits of the source copy and the number of free
   bits, whose (source bit, destination bit) pairs fill [free]. *)
let route extras l free sg e =
  let s = Sg.edge_src sg e and d = Sg.edge_dst sg e in
  let leave = ref 0 and n_free = ref 0 in
  Array.iteri
    (fun i (x : Sg.extra) ->
      match (x.Sg.values.(s), x.Sg.values.(d)) with
      | Fourval.V0, Fourval.V0 | Fourval.V1, Fourval.V1 -> ()
      | Fourval.V0, Fourval.Up | Fourval.V1, Fourval.Dn -> ()
      | Fourval.Up, Fourval.V1 | Fourval.Dn, Fourval.V0 ->
        leave := !leave lor (1 lsl l.pos.(i).(s))
      | Fourval.Up, Fourval.Up | Fourval.Dn, Fourval.Dn ->
        free.(!n_free) <- (1 lsl l.pos.(i).(s), 1 lsl l.pos.(i).(d));
        incr n_free
      | _ ->
        (* add_extra validated the assignment, so this cannot happen *)
        assert false)
    extras;
  (!leave, !n_free)

(* [f src_copy dst_copy] for each of the [2^nf] assignments of the free
   bits, the first free bit most significant. *)
let iter_free ~leave free nf f =
  for t = 0 to (1 lsl nf) - 1 do
    let sc = ref leave and dc = ref 0 in
    for r = 0 to nf - 1 do
      if t land (1 lsl (nf - 1 - r)) <> 0 then begin
        let sb, db = free.(r) in
        sc := !sc lor sb;
        dc := !dc lor db
      end
    done;
    f !sc !dc
  done

(* [dir_of v] is the direction of the transition an extra valued [v]
   still has to make. *)
let dir_of = function
  | Fourval.Up -> Some Sg.R
  | Fourval.Dn -> Some Sg.F
  | Fourval.V0 | Fourval.V1 -> None

(* One pass over all extras.  Each level of the one-at-a-time expansion
   lists its own inserted transitions followed by the previous level's
   edges, each re-routed into one edge, or an A then a B edge for a
   concurrent extra; that order is rebuilt below, last extra's
   transitions first.  Every copy of a state carries the same extra
   values, so the value pairs of the original edges are all the
   re-routing needs. *)
let expand sg =
  let extras = Sg.extras sg in
  let k = Array.length extras in
  if k = 0 then sg
  else begin
    Counter.bump Counter.expansion;
    let n = Sg.n_states sg and ns = Sg.n_signals sg in
    let l = layout sg extras in
    let first = l.first in
    let codes = Array.make first.(n) 0 in
    for m = 0 to n - 1 do
      for c = 0 to (1 lsl l.width.(m)) - 1 do
        let code = ref (Sg.code sg m) in
        for i = 0 to k - 1 do
          if extra_bit extras l i m c then code := !code lor (1 lsl (ns + i))
        done;
        codes.(first.(m) + c) <- !code
      done
    done;
    let free = Array.make k (0, 0) in
    (* [edges add] calls [add src label dst] for every expanded edge, in
       order: first the inserted transitions, from every A copy to its B
       copy, then the re-routed original edges. *)
    let edges add =
      for i = k - 1 downto 0 do
        for m = 0 to n - 1 do
          Option.iter
            (fun d ->
              let b = 1 lsl l.pos.(i).(m) in
              for c = 0 to (1 lsl l.width.(m)) - 1 do
                if c land b = 0 then
                  add (first.(m) + c) (Sg.label_code (ns + i) d) (first.(m) + c + b)
              done)
            (dir_of extras.(i).Sg.values.(m))
        done
      done;
      for e = 0 to Sg.n_edges sg - 1 do
        let leave, nf = route extras l free sg e in
        let a = first.(Sg.edge_src sg e) and b = first.(Sg.edge_dst sg e) in
        iter_free ~leave free nf (fun sc dc -> add (a + sc) (Sg.edge_label sg e) (b + dc))
      done
    in
    (* counted first, so that they fill three arrays of their exact length *)
    let len = ref 0 in
    edges (fun _ _ _ -> incr len);
    let src = Array.make !len 0 and lab = Array.make !len 0 in
    let dst = Array.make !len 0 and next = ref 0 in
    edges (fun a label b ->
        src.(!next) <- a;
        lab.(!next) <- label;
        dst.(!next) <- b;
        incr next);
    let signals =
      Array.init (ns + k) (fun s ->
          if s < ns then
            { Sg.sname = Sg.signal_name sg s; non_input = Sg.non_input sg s }
          else { Sg.sname = extras.(s - ns).Sg.xname; non_input = true })
    in
    Sg.make ~name:(Sg.name sg) ~signals ~codes ~src ~lab ~dst
      ~initial:first.(Sg.initial sg)
  end

(* ------------------------------------------------------------------ *)
(* Folded decisions                                                    *)
(* ------------------------------------------------------------------ *)

(* [expand sg] described without building it: the layout, and the
   non-input rise and fall masks of every copy, indexed as [expand]
   numbers the copies. *)
type folded = {
  sg : Sg.t;
  extras : Sg.extra array;
  l : layout;
  rise : int array;
  fall : int array;
}

let fold sg =
  let extras = Sg.extras sg in
  let ns = Sg.n_signals sg in
  (* the bound {!Sg.make} enforces on the expanded signal set *)
  if ns + Array.length extras > 62 then
    raise (Sg.Inconsistent "more than 62 visible signals");
  let l = layout sg extras in
  let n = Sg.n_states sg in
  let rise = Array.make l.first.(n) 0 and fall = Array.make l.first.(n) 0 in
  let excite dir ~m ~bit keep =
    let mask = match dir with Sg.R -> rise | Sg.F -> fall in
    for c = 0 to (1 lsl l.width.(m)) - 1 do
      if keep c then
        mask.(l.first.(m) + c) <- mask.(l.first.(m) + c) lor bit
    done
  in
  (* an extra's transition is excited in the A copies only *)
  Array.iteri
    (fun i (x : Sg.extra) ->
      Array.iteri
        (fun m v ->
          Option.iter
            (fun dir ->
              let b = 1 lsl l.pos.(i).(m) in
              excite dir ~m ~bit:(1 lsl (ns + i)) (fun c -> c land b = 0))
            (dir_of v))
        x.Sg.values)
    extras;
  (* an original edge is excited in the copies that hold its leaving
     bits, whatever its free bits are *)
  let free = Array.make (Array.length extras) (0, 0) in
  for e = 0 to Sg.n_edges sg - 1 do
    let s = Sg.edge_signal sg e in
    if Sg.non_input sg s then begin
      let leave, _ = route extras l free sg e in
      excite (Sg.edge_dir sg e) ~m:(Sg.edge_src sg e) ~bit:(1 lsl s) (fun c ->
          c land leave = leave)
    end
  done;
  { sg; extras; l; rise; fall }

module Int_tbl = Hashtbl.Make (Int)

(* Copies of one state differ in an excited extra's bit, and copies of
   states with different base codes differ in the base code; so only
   the copies of a same-base-code class of [sg] can share a code, and
   they need only their extras' bits compared. *)
let folded_csc f =
  let n = Sg.n_states f.sg and k = Array.length f.extras in
  let classes = Int_tbl.create n in
  for m = n - 1 downto 0 do
    let c = Sg.code f.sg m in
    Int_tbl.replace classes c
      (m :: Option.value (Int_tbl.find_opt classes c) ~default:[])
  done;
  let extra_code m c =
    let code = ref 0 in
    for i = 0 to k - 1 do
      if extra_bit f.extras f.l i m c then code := !code lor (1 lsl i)
    done;
    !code
  in
  match
    Int_tbl.iter
      (fun _ members ->
        match members with
        | [] | [ _ ] -> ()
        | members ->
          let seen = Int_tbl.create 64 in
          List.iter
            (fun m ->
              for c = 0 to (1 lsl f.l.width.(m)) - 1 do
                let j = f.l.first.(m) + c and x = extra_code m c in
                match Int_tbl.find_opt seen x with
                | None -> Int_tbl.add seen x j
                | Some j0 ->
                  if f.rise.(j0) <> f.rise.(j) || f.fall.(j0) <> f.fall.(j)
                  then raise Exit
              done)
            members)
      classes
  with
  | () -> true
  | exception Exit -> false

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

(* The violations {!Persistency.violations} lists on [expand sg], one
   per expanded edge and non-input event it disables; with [stop], the
   count stops at the first violating edge.  Only re-routed original
   edges can disable anything: an inserted transition leads from copy
   [c] to [c] plus its own bit, which holds every leaving bit [c] holds
   and leaves every other extra's bit as it was, so all that was
   excited before it, except itself, is excited after it. *)
let folded_violations ~stop f =
  let count = ref 0 in
  let free = Array.make (Array.length f.extras) (0, 0) in
  (try
     for e = 0 to Sg.n_edges f.sg - 1 do
       let fired = 1 lsl Sg.edge_signal f.sg e in
       let fired_r, fired_f =
         if Sg.edge_dir f.sg e = Sg.R then (fired, 0) else (0, fired)
       in
       let src = f.l.first.(Sg.edge_src f.sg e)
       and dst = f.l.first.(Sg.edge_dst f.sg e) in
       let leave, nf = route f.extras f.l free f.sg e in
       iter_free ~leave free nf (fun sc dc ->
           let v =
             popcount
               (f.rise.(src + sc) land lnot fired_r land lnot f.rise.(dst + dc))
             + popcount
                 (f.fall.(src + sc) land lnot fired_f land lnot f.fall.(dst + dc))
           in
           count := !count + v;
           if stop && v > 0 then raise Exit)
     done
   with Exit -> ());
  !count

let csc_satisfied sg =
  if Sg.n_extras sg = 0 then Csc.csc_satisfied sg else folded_csc (fold sg)

let is_semi_modular sg =
  if Sg.n_extras sg = 0 then Persistency.is_semi_modular sg
  else folded_violations ~stop:true (fold sg) = 0

let n_violations sg =
  if Sg.n_extras sg = 0 then List.length (Persistency.violations sg)
  else folded_violations ~stop:false (fold sg)

let implementable sg =
  if Sg.n_extras sg = 0 then
    Csc.csc_satisfied sg && Persistency.is_semi_modular sg
  else
    let f = fold sg in
    folded_csc f && folded_violations ~stop:true f = 0
