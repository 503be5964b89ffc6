(* The copies of each state.  Expanding one extra at a time splits
   every state once per extra excited there, A half before B half, and
   later levels copy values to both halves; so the final copies of [m]
   are indexed by a j-bit number over its j excited extras, extra 0 the
   most significant bit and 0 the A half: extra [i]'s copy bit at [m] is
   the number of extras above [i] excited at [m].  Masks over extras
   hold bit [i] for extra [i]: [excited.(m)] the extras excited at [m],
   and [copy0.(m)] the extras valued 1 in [m]'s copy 0, the [V1] and
   [Dn] ones.  [first.(m)] is the number of copies of the states before
   [m]. *)
type layout = {
  excited : int array;
  copy0 : int array;
  width : int array;
  first : int array;
}

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

let layout sg extras =
  let n = Sg.n_states sg in
  let excited = Array.make n 0 and copy0 = Array.make n 0 in
  Array.iteri
    (fun i (x : Sg.extra) ->
      let bit = 1 lsl i in
      Array.iteri
        (fun m v ->
          match v with
          | Fourval.V0 -> ()
          | Fourval.V1 -> copy0.(m) <- copy0.(m) lor bit
          | Fourval.Up -> excited.(m) <- excited.(m) lor bit
          | Fourval.Dn ->
            excited.(m) <- excited.(m) lor bit;
            copy0.(m) <- copy0.(m) lor bit)
        x.Sg.values)
    extras;
  let width = Array.map popcount excited in
  let first = Array.make (n + 1) 0 in
  for m = 0 to n - 1 do
    first.(m + 1) <- first.(m) + (1 lsl width.(m))
  done;
  { excited; copy0; width; first }

(* [iter_copies l bits m f] calls [f m j x] for every copy of [m], [j]
   its number and [x] its extras' values as a mask over extras.  The
   copies come in Gray-code order, so that [x] changes by one extra's
   bit from one copy to the next; [bits] is scratch space, one entry per
   extra.  ([f] takes [m] so that callers build it once, not per
   state.) *)
let iter_copies l bits m f =
  if l.width.(m) = 0 then f m l.first.(m) l.copy0.(m)
  else begin
    (* [bits.(p)] is the extra whose copy bit is [p] *)
    let p = ref 0 in
    for i = Array.length bits - 1 downto 0 do
      if l.excited.(m) land (1 lsl i) <> 0 then begin
        bits.(!p) <- 1 lsl i;
        incr p
      end
    done;
    let x = ref l.copy0.(m) in
    for g = 0 to (1 lsl l.width.(m)) - 1 do
      if g > 0 then begin
        (* the Gray code of [g] differs from the one before in the
           lowest set bit of [g] *)
        let b = ref 0 in
        while g land (1 lsl !b) = 0 do
          incr b
        done;
        x := !x lxor bits.(!b)
      end;
      f m (l.first.(m) + (g lxor (g lsr 1))) !x
    done
  end

(* [route l k sg e f] calls [f e leave free_src free_dst] with the
   re-routing of the original edge [e], as masks over copy bits.  A
   source leaving an excited extra's region ([Up → V1], [Dn → V0]) is
   its B copy: [leave] holds those bits of the source copy.  A
   destination entering one is its A copy.  Each extra concurrent along
   the edge ([Up → Up], [Dn → Dn]) adds a free bit, in [free_src] at the
   source and in [free_dst] at the destination, shared by both ends: one
   expanded edge per assignment of the free bits.  Both ends number an
   extra's bit by the excited extras above it, so the free bits come in
   the same order at either end: counting [s] up through the subsets of
   [free_src] with [(s - free_src) land free_src], and [d] through those
   of [free_dst] in lockstep, pairs the two ends of each expanded edge,
   the first concurrent extra most significant.  ([f] takes [e] so that
   callers build it once, not per edge.) *)
let route l k sg e f =
  let xs = l.excited.(Sg.edge_src sg e) in
  if xs = 0 then f e 0 0 0
  else begin
    let xd = l.excited.(Sg.edge_dst sg e) in
    let leave = ref 0 and fs = ref 0 and fd = ref 0 in
    (* the next copy bit at either end, from the last extra down *)
    let bs = ref 1 and bd = ref 1 in
    for i = k - 1 downto 0 do
      let x = 1 lsl i in
      if xs land x <> 0 then begin
        if xd land x <> 0 then begin
          fs := !fs lor !bs;
          fd := !fd lor !bd
        end
        else leave := !leave lor !bs;
        bs := !bs lsl 1
      end;
      if xd land x <> 0 then bd := !bd lsl 1
    done;
    f e !leave !fs !fd
  end

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
    let bits = Array.make k 0 in
    let code m j x = codes.(j) <- Sg.code sg m lor (x lsl ns) in
    for m = 0 to n - 1 do
      iter_copies l bits m code
    done;
    (* [edges add] calls [add src label dst] for every expanded edge, in
       order: first the inserted transitions, from every A copy to its B
       copy, then the re-routed original edges. *)
    let edges add =
      for i = k - 1 downto 0 do
        for m = 0 to n - 1 do
          match dir_of extras.(i).Sg.values.(m) with
          | None -> ()
          | Some d ->
            let b = 1 lsl popcount (l.excited.(m) lsr (i + 1)) in
            for c = 0 to (1 lsl l.width.(m)) - 1 do
              if c land b = 0 then
                add (first.(m) + c) (Sg.label_code (ns + i) d) (first.(m) + c + b)
            done
        done
      done;
      (* [leave] and the free bits are disjoint: [leave lor s] is
         [leave + s] *)
      let reroute e leave fs fd =
        let a = first.(Sg.edge_src sg e) + leave
        and b = first.(Sg.edge_dst sg e)
        and label = Sg.edge_label sg e in
        let s = ref 0 and d = ref 0 and more = ref true in
        while !more do
          add (a + !s) label (b + !d);
          s := (!s - fs) land fs;
          d := (!d - fd) land fd;
          more := !s <> 0
        done
      in
      for e = 0 to Sg.n_edges sg - 1 do
        route l k sg e reroute
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

(* [expand sg] described without building it: the layout, every
   original edge's route, and the non-input rise and fall masks of
   every copy, indexed as [expand] numbers the copies. *)
type folded = {
  sg : Sg.t;
  l : layout;
  leave : int array;
  free_src : int array;
  free_dst : int array;
  rise : int array;
  fall : int array;
}

let fold sg =
  let extras = Sg.extras sg in
  let k = Array.length extras and ns = Sg.n_signals sg in
  (* the bound {!Sg.make} enforces on the expanded signal set *)
  if ns + k > 62 then raise (Sg.Inconsistent "more than 62 visible signals");
  let l = layout sg extras in
  let n = Sg.n_states sg in
  let rise = Array.make l.first.(n) 0 and fall = Array.make l.first.(n) 0 in
  (* an extra's transition is excited in its A copies only: an [Up]
     extra still 0 there, a [Dn] one still 1 *)
  let bits = Array.make k 0 in
  let excite m j x =
    rise.(j) <- (l.excited.(m) land lnot l.copy0.(m) land lnot x) lsl ns;
    fall.(j) <- (l.excited.(m) land l.copy0.(m) land x) lsl ns
  in
  for m = 0 to n - 1 do
    if l.excited.(m) <> 0 then iter_copies l bits m excite
  done;
  (* each edge's route, kept for the violation scan; an original edge
     is excited in the copies of its source that hold its leaving bits,
     whatever the others are *)
  let ne = Sg.n_edges sg in
  let leave = Array.make ne 0 in
  let free_src = Array.make ne 0 and free_dst = Array.make ne 0 in
  let excite_edge e lv fs fd =
    leave.(e) <- lv;
    free_src.(e) <- fs;
    free_dst.(e) <- fd;
    let s = Sg.edge_signal sg e in
    if Sg.non_input sg s then begin
      let masks = match Sg.edge_dir sg e with Sg.R -> rise | Sg.F -> fall in
      let m = Sg.edge_src sg e in
      let others = ((1 lsl l.width.(m)) - 1) land lnot lv in
      (* the subsets of [others], from all of them down to none *)
      let c = ref others and more = ref true in
      while !more do
        let j = l.first.(m) + (lv lor !c) in
        masks.(j) <- masks.(j) lor (1 lsl s);
        more := !c <> 0;
        c := (!c - 1) land others
      done
    end
  in
  for e = 0 to ne - 1 do
    route l k sg e excite_edge
  done;
  { sg; l; leave; free_src; free_dst; rise; fall }

(* Copies of one state differ in an excited extra's bit, and copies of
   states with different base codes differ in the base code; so only
   the copies of a same-base-code class of [sg] can share a code, and
   they need only their extras' values compared.  One table
   ({!Sg.Slots}), sized to the largest class's copies, serves every
   class, each class owning its slots by its least state. *)
let folded_csc f =
  let n = Sg.n_states f.sg in
  let head, next = Sg.group_by n (Sg.code f.sg) in
  let shared m = head.(m) = m && next.(m) >= 0 in
  let most = ref 0 in
  for m = 0 to n - 1 do
    if shared m then begin
      let copies = ref 0 and p = ref m in
      while !p >= 0 do
        copies := !copies + (1 lsl f.l.width.(!p));
        p := next.(!p)
      done;
      most := max !most !copies
    end
  done;
  let table = Sg.Slots.create !most in
  let scratch = Array.make (Sg.n_extras f.sg) 0 in
  (* the slot's value is the first copy seen with values [x] *)
  let enter m j x =
    let h = Sg.Slots.slot table ~owner:head.(m) x in
    let c = Sg.Slots.get table h in
    if c < 0 then Sg.Slots.set table h j
    else if f.rise.(c) <> f.rise.(j) || f.fall.(c) <> f.fall.(j) then
      raise Exit
  in
  match
    for m = 0 to n - 1 do
      if shared m then begin
        let p = ref m in
        while !p >= 0 do
          iter_copies f.l scratch !p enter;
          p := next.(!p)
        done
      end
    done
  with
  | () -> true
  | exception Exit -> false

(* The violations {!Persistency.violations} lists on [expand sg], one
   per expanded edge and non-input event it disables; with [stop], the
   count stops at 1, on the first violating edge.  Only re-routed
   original edges can disable anything: an inserted transition leads
   from copy [c] to [c] plus its own bit, which holds every leaving bit
   [c] holds and leaves every other extra's bit as it was, so all that
   was excited before it, except itself, is excited after it. *)
let folded_violations ~stop f =
  let count = ref 0 in
  (try
     for e = 0 to Sg.n_edges f.sg - 1 do
       (* the fired event is the one excitation the edge may withdraw *)
       let fired = 1 lsl Sg.edge_signal f.sg e in
       let keep_r, keep_f =
         if Sg.edge_dir f.sg e = Sg.R then (lnot fired, -1) else (-1, lnot fired)
       in
       (* the expanded edges, enumerated as [expand] does *)
       let src = f.l.first.(Sg.edge_src f.sg e) + f.leave.(e)
       and dst = f.l.first.(Sg.edge_dst f.sg e) in
       let fs = f.free_src.(e) and fd = f.free_dst.(e) in
       let s = ref 0 and d = ref 0 and more = ref true in
       while !more do
         let sc = src + !s and dc = dst + !d in
         let vr = f.rise.(sc) land keep_r land lnot f.rise.(dc)
         and vf = f.fall.(sc) land keep_f land lnot f.fall.(dc) in
         if not stop then count := !count + popcount vr + popcount vf
         else if vr lor vf <> 0 then begin
           count := 1;
           raise Exit
         end;
         s := (!s - fs) land fs;
         d := (!d - fd) land fd;
         more := !s <> 0
       done
     done
   with Exit -> ());
  !count

let csc_satisfied sg =
  if Sg.n_extras sg = 0 then Csc.csc_satisfied sg else folded_csc (fold sg)

let n_violations sg =
  if Sg.n_extras sg = 0 then List.length (Persistency.violations sg)
  else folded_violations ~stop:false (fold sg)

(* [csc] is already known to hold of the expansion, or is decided here *)
let decide ~csc sg =
  Counter.bump Counter.implementability;
  if Sg.n_extras sg = 0 then
    (csc || Csc.csc_satisfied sg) && Persistency.is_semi_modular sg
  else
    let f = fold sg in
    (csc || folded_csc f) && folded_violations ~stop:true f = 0

let implementable sg = decide ~csc:false sg
let implementable_csc sg = decide ~csc:true sg
