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

(* The free bits of one re-routed edge, reused from edge to edge:
   [src.(r)] and [dst.(r)] are the source and destination copy bits of
   its [r]-th concurrent extra, [nf] how many there are. *)
type free = { src : int array; dst : int array; mutable nf : int }

let free_bits extras =
  let k = Array.length extras in
  { src = Array.make k 0; dst = Array.make k 0; nf = 0 }

(* The re-routing of an original edge: a source leaving an excited
   extra's region ([Up → V1], [Dn → V0]) is its B copy, a destination
   entering one its A copy, and each extra concurrent along the edge
   ([Up → Up], [Dn → Dn]) adds one free bit shared by both ends.
   Returns the leaving bits of the source copy and fills [free]. *)
let route extras l free sg e =
  let s = Sg.edge_src sg e and d = Sg.edge_dst sg e in
  let leave = ref 0 in
  free.nf <- 0;
  for i = 0 to Array.length extras - 1 do
    let values = extras.(i).Sg.values in
    match (values.(s), values.(d)) with
    | Fourval.V0, Fourval.V0 | Fourval.V1, Fourval.V1 -> ()
    | Fourval.V0, Fourval.Up | Fourval.V1, Fourval.Dn -> ()
    | Fourval.Up, Fourval.V1 | Fourval.Dn, Fourval.V0 ->
      leave := !leave lor (1 lsl l.pos.(i).(s))
    | Fourval.Up, Fourval.Up | Fourval.Dn, Fourval.Dn ->
      free.src.(free.nf) <- 1 lsl l.pos.(i).(s);
      free.dst.(free.nf) <- 1 lsl l.pos.(i).(d);
      free.nf <- free.nf + 1
    | _ ->
      (* add_extra validated the assignment, so this cannot happen *)
      assert false
  done;
  !leave

(* [base] with the [bits] that assignment [t] of the [nf] free bits
   sets, the first free bit most significant: the copy offset of one
   end of a re-routed edge, for [t] from 0 to [2^nf - 1]. *)
let copy bits nf t base =
  let c = ref base in
  for r = 0 to nf - 1 do
    if t land (1 lsl (nf - 1 - r)) <> 0 then c := !c lor bits.(r)
  done;
  !c

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
    let free = free_bits extras in
    (* [edges add] calls [add src label dst] for every expanded edge, in
       order: first the inserted transitions, from every A copy to its B
       copy, then the re-routed original edges. *)
    let edges add =
      for i = k - 1 downto 0 do
        for m = 0 to n - 1 do
          match dir_of extras.(i).Sg.values.(m) with
          | None -> ()
          | Some d ->
            let b = 1 lsl l.pos.(i).(m) in
            for c = 0 to (1 lsl l.width.(m)) - 1 do
              if c land b = 0 then
                add (first.(m) + c) (Sg.label_code (ns + i) d) (first.(m) + c + b)
            done
        done
      done;
      for e = 0 to Sg.n_edges sg - 1 do
        let leave = route extras l free sg e in
        let a = first.(Sg.edge_src sg e) and b = first.(Sg.edge_dst sg e) in
        for t = 0 to (1 lsl free.nf) - 1 do
          add
            (a + copy free.src free.nf t leave)
            (Sg.edge_label sg e)
            (b + copy free.dst free.nf t 0)
        done
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
  (* [bit] excited in the copies [c] of [m] with [c land mask = want] *)
  let excite dir ~m ~bit ~mask ~want =
    let masks = match dir with Sg.R -> rise | Sg.F -> fall in
    for c = 0 to (1 lsl l.width.(m)) - 1 do
      if c land mask = want then
        masks.(l.first.(m) + c) <- masks.(l.first.(m) + c) lor bit
    done
  in
  (* an extra's transition is excited in the A copies only *)
  Array.iteri
    (fun i (x : Sg.extra) ->
      for m = 0 to n - 1 do
        match dir_of x.Sg.values.(m) with
        | None -> ()
        | Some dir ->
          excite dir ~m ~bit:(1 lsl (ns + i)) ~mask:(1 lsl l.pos.(i).(m)) ~want:0
      done)
    extras;
  (* an original edge is excited in the copies that hold its leaving
     bits, whatever its free bits are *)
  let free = free_bits extras in
  for e = 0 to Sg.n_edges sg - 1 do
    let s = Sg.edge_signal sg e in
    if Sg.non_input sg s then begin
      let leave = route extras l free sg e in
      excite (Sg.edge_dir sg e) ~m:(Sg.edge_src sg e) ~bit:(1 lsl s) ~mask:leave
        ~want:leave
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
  let free = free_bits f.extras in
  (try
     for e = 0 to Sg.n_edges f.sg - 1 do
       let fired = 1 lsl Sg.edge_signal f.sg e in
       let fired_r, fired_f =
         if Sg.edge_dir f.sg e = Sg.R then (fired, 0) else (0, fired)
       in
       let src = f.l.first.(Sg.edge_src f.sg e)
       and dst = f.l.first.(Sg.edge_dst f.sg e) in
       let leave = route f.extras f.l free f.sg e in
       for t = 0 to (1 lsl free.nf) - 1 do
         let sc = src + copy free.src free.nf t leave
         and dc = dst + copy free.dst free.nf t 0 in
         let v =
           popcount (f.rise.(sc) land lnot fired_r land lnot f.rise.(dc))
           + popcount (f.fall.(sc) land lnot fired_f land lnot f.fall.(dc))
         in
         count := !count + v;
         if stop && v > 0 then raise Exit
       done
     done
   with Exit -> ());
  !count

let csc_satisfied sg =
  if Sg.n_extras sg = 0 then Csc.csc_satisfied sg else folded_csc (fold sg)

let n_violations sg =
  if Sg.n_extras sg = 0 then List.length (Persistency.violations sg)
  else folded_violations ~stop:false (fold sg)

let implementable sg =
  if Sg.n_extras sg = 0 then
    Csc.csc_satisfied sg && Persistency.is_semi_modular sg
  else
    let f = fold sg in
    folded_csc f && folded_violations ~stop:true f = 0
