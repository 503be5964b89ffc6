type t = {
  output : int;
  input_set : int list;
  immediate : int list;
  kept_extras : string list;
  module_sg : Sg.t;
  cover : int array;
}

(* [trig.(o)]: the signals triggering output [o], one bit each, from
   one pass over the edges.  [s] triggers [o] when firing [s] enables a
   transition of [o]: [o] is excited after the [s] edge but was not
   before.  Concurrent signals whose firing merely interleaves with
   [o]'s excitation do not qualify — this is the state-graph image of a
   direct causal STG arc.  [rise] and [fall] are {!Sg.excitation_masks},
   so only non-inputs have triggers. *)
let trigger_masks sg rise fall =
  let trig = Array.make (Sg.n_signals sg) 0 in
  for e = 0 to Sg.n_edges sg - 1 do
    let s = Sg.edge_signal sg e in
    let a = Sg.edge_src sg e and b = Sg.edge_dst sg e in
    let fresh =
      ref ((rise.(b) lor fall.(b)) land lnot (rise.(a) lor fall.(a) lor (1 lsl s)))
    in
    let o = ref 0 in
    while !fresh <> 0 do
      if !fresh land 1 <> 0 then trig.(!o) <- trig.(!o) lor (1 lsl s);
      fresh := !fresh lsr 1;
      incr o
    done
  done;
  trig

let signals_of mask ns = List.filter (fun s -> mask land (1 lsl s) <> 0) (List.init ns Fun.id)

let require_output sg output what =
  if not (Sg.non_input sg output) then
    invalid_arg
      (Printf.sprintf "Input_derivation.%s: %s is an input" what
         (Sg.signal_name sg output))

let triggers sg ~output =
  require_output sg output "triggers";
  let rise, fall = Sg.excitation_masks sg in
  signals_of (trigger_masks sg rise fall).(output) (Sg.n_signals sg)

exception Reject

(* The quotient of the complete graph by the signals hidden so far: its
   nodes (the classes, numbered by first member) are the first [n] slots
   of the arrays.  Its edges are the complete graph's, read through the
   cover.  A contraction rewrites the slots in place. *)
type view = {
  mutable n : int;
  code : int array;  (** visible code with the hidden bits cleared *)
  implied : int array;
      (** implied values of the output among the members: bit 0 for 0,
          bit 1 for 1 *)
  presence : Fourval.presence array array;
      (** per state signal, the values among the members; [[||]] once
          the signal is dropped *)
}

(* Contract [v] to its classes under [parent], clearing code bit [drop],
   and move [cover] along.  A class is numbered no later than its first
   node, so every slot is read before it is overwritten.  Numbering
   classes by first node numbers them by first complete-graph state, so
   the composed cover is exactly the one a quotient of the complete
   graph by every hidden signal has. *)
let contract v parent ~drop ~cls cover =
  let nc = ref 0 in
  let mask = lnot (1 lsl drop) in
  for i = 0 to v.n - 1 do
    let r = Sg.Uf.find parent i in
    if r = i then begin
      let c = !nc in
      incr nc;
      cls.(i) <- c;
      v.code.(c) <- v.code.(i) land mask;
      v.implied.(c) <- v.implied.(i);
      for x = 0 to Array.length v.presence - 1 do
        let p = v.presence.(x) in
        if Array.length p > 0 then p.(c) <- p.(i)
      done
    end
    else begin
      let c = cls.(r) in
      cls.(i) <- c;
      v.implied.(c) <- v.implied.(c) lor v.implied.(i);
      for x = 0 to Array.length v.presence - 1 do
        let p = v.presence.(x) in
        if Array.length p > 0 then p.(c) <- Fourval.union p.(c) p.(i)
      done
    end
  done;
  v.n <- !nc;
  for m = 0 to Array.length cover - 1 do
    cover.(m) <- cls.(cover.(m))
  done

(* The implied values of [output] seen per full code: open addressing
   over preallocated arrays of at least twice as many slots as codes,
   emptied in O(1) by advancing [epoch]. *)
type code_table = {
  keys : int array;
  seen : int array;
  stamp : int array;
  mutable epoch : int;
}

let code_table size =
  let cap = ref 16 in
  while !cap < 2 * size do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap 0; seen = Array.make !cap 0; stamp = Array.make !cap 0; epoch = 0 }

(* Record [value] for [code], probing from slot [i]; the values recorded
   for it before. *)
let rec record t code value i =
  if t.stamp.(i) <> t.epoch then begin
    t.stamp.(i) <- t.epoch;
    t.keys.(i) <- code;
    t.seen.(i) <- value;
    0
  end
  else if t.keys.(i) = code then begin
    let before = t.seen.(i) in
    t.seen.(i) <- before lor value;
    before
  end
  else record t code value ((i + 1) land (Array.length t.keys - 1))

(* a multiply-xor mix of the code picks the first slot *)
let record t code value =
  let h = code * 0x2545F4914F6CDD1D in
  record t code value ((h lxor (h lsr 29)) land (Array.length t.keys - 1))

type context = {
  sigma : Sg.t;
  codes : int array;  (** Σ's state codes *)
  start : int array;
  by_signal : int array;
      (** the edges of signal [s] are [by_signal.(k)] for
          [start.(s) <= k < start.(s + 1)], in edge order *)
  rise : int array;
  fall : int array;  (** {!Sg.excitation_masks} of Σ *)
  trig : int array;  (** per output, its trigger signals, one bit each *)
  (* scratch of one determination: the first view's slots, the
     partition, and the per-class arrays of [evaluate] *)
  view_code : int array;
  view_implied : int array;
  parent : int array;
  cls : int array;
  root : int array;
  class_implied : int array;
  class_code : int array;
  mutable class_presence : Fourval.presence array;
  mutable merged : Fourval.t array;
  mutable table : code_table;
}

let context sigma =
  let n = Sg.n_states sigma and ns = Sg.n_signals sigma in
  let n_edges = Sg.n_edges sigma in
  (* each signal's count, summed so that [start.(s)] ends its block,
     then filled from the last edge down *)
  let start = Array.make (ns + 1) 0 in
  for e = 0 to n_edges - 1 do
    let s = Sg.edge_signal sigma e in
    start.(s) <- start.(s) + 1
  done;
  for s = 1 to ns do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let by_signal = Array.make n_edges 0 in
  for e = n_edges - 1 downto 0 do
    let s = Sg.edge_signal sigma e in
    start.(s) <- start.(s) - 1;
    by_signal.(start.(s)) <- e
  done;
  let rise, fall = Sg.excitation_masks sigma in
  let codes = Array.init n (Sg.code sigma) in
  let scratch () = Array.make n 0 in
  {
    sigma;
    codes;
    start;
    by_signal;
    rise;
    fall;
    trig = trigger_masks sigma rise fall;
    view_code = scratch ();
    view_implied = scratch ();
    parent = scratch ();
    cls = scratch ();
    root = scratch ();
    class_implied = scratch ();
    class_code = scratch ();
    class_presence = [||];
    merged = [||];
    table = code_table 0;
  }

let determine_in c sg ~output =
  if not (Sg.shares_edges c.sigma sg) then
    invalid_arg
      "Input_derivation.determine_in: the graph's states and edges are not the \
       context's";
  require_output sg output "determine_in";
  let n = Sg.n_states sg and ns = Sg.n_signals sg in
  let extras = Sg.extras sg in
  let immediate = signals_of c.trig.(output) ns in
  let src e = Sg.edge_src sg e and dst e = Sg.edge_dst sg e in
  let start = c.start and by_signal = c.by_signal in
  let iter_signal s f =
    for k = start.(s) to start.(s + 1) - 1 do
      f by_signal.(k)
    done
  in
  (* Per-class scratch, indexed by class root. *)
  let root = c.root and class_implied = c.class_implied and code = c.class_code in
  (* The first view: one node per state, its own root, [output]'s
     implied value read off the masks. *)
  let out_bit = 1 lsl output and implied = c.view_implied in
  Array.blit c.codes 0 c.view_code 0 n;
  for m = 0 to n - 1 do
    root.(m) <- m;
    let ones = (c.codes.(m) land lnot c.fall.(m)) lor c.rise.(m) in
    implied.(m) <- (if ones land out_bit <> 0 then 2 else 1)
  done;
  let parent = c.parent and cls = c.cls in
  let cover = Array.init n Fun.id in
  let hidden = Array.make ns false and dropped = Array.make (Array.length extras) false in
  if Array.length extras > 0 && Array.length c.merged = 0 then begin
    c.class_presence <- Array.make n Fourval.absent;
    c.merged <- Array.make n Fourval.V0
  end;
  let class_presence = c.class_presence and merged = c.merged in
  let width = ns + Array.length extras in
  let bound = if width >= 30 then n else min n (1 lsl width) in
  if Array.length c.table.keys < 2 * bound then c.table <- code_table bound;
  let codes_seen = c.table in
  (* The number of codes [code.(i) land keep], over the roots [i < k],
     that carry both implied values of [output], [value.(i)] those of
     root [i]. *)
  let count_conflicts k ~keep value =
    codes_seen.epoch <- codes_seen.epoch + 1;
    let conflicts = ref 0 in
    for i = 0 to k - 1 do
      if root.(i) = i then begin
        let x = value.(i) in
        let seen = record codes_seen (code.(i) land keep) x in
        if seen lor x = 3 && seen <> 3 then incr conflicts
      end
    done;
    !conflicts
  in
  (* The identity partition: every class one state carrying its own
     values, so every merge succeeds and every edge stays legal ({!Sg}
     admits no other extra), and the count reads full codes. *)
  for m = 0 to n - 1 do
    code.(m) <- Sg.full_code sg m
  done;
  let n_csc = ref (count_conflicts n ~keep:(-1) implied) in
  let kept_extras = ref [] and keep = ref (-1) in
  (* State signals first: an inserted signal that is irrelevant to this
     output would otherwise block the ε-merging of the region it toggles
     in (its rise and fall would land in one class), inflating the
     module.  Dropping is safe whenever this output's conflicts do not
     increase. *)
  Array.iteri
    (fun xi (x : Sg.extra) ->
      let without = !keep land lnot (1 lsl (ns + xi)) in
      let n' = count_conflicts n ~keep:without implied in
      if n' <= !n_csc then begin
        n_csc := n';
        keep := without;
        dropped.(xi) <- true
      end
      else kept_extras := x.Sg.xname :: !kept_extras)
    extras;
  let v =
    {
      n;
      code = c.view_code;
      implied;
      presence =
        Array.mapi
          (fun xi (x : Sg.extra) ->
            if dropped.(xi) then [||]
            else Array.map (Fourval.present Fourval.absent) x.Sg.values)
          extras;
    }
  in
  (* The decision a quotient + homogeneity + conflict count would make
     on the view of [v]'s classes under [parent], with [hide] hidden as
     well, read off the classes without building it: [None] when the
     view does not exist or a class mixes both implied values of
     [output], else the number of full codes of the view whose classes
     imply both values of [output]. *)
  let evaluate hide =
    let hbit = 1 lsl hide in
    for i = 0 to v.n - 1 do
      (* a root is its class's lowest node, so it is met first *)
      let r = Sg.Uf.find parent i in
      root.(i) <- r;
      if r = i then begin
        class_implied.(i) <- 0;
        code.(i) <- v.code.(i) land lnot hbit
      end;
      let im = class_implied.(r) lor v.implied.(i) in
      (* A merge class mixing both implied values of [output] would make
         the output's logic ill-defined over the module, and would hide a
         conflict this module is responsible for. *)
      if im = 3 then raise Reject;
      class_implied.(r) <- im
    done;
    (* kept extras merged with the Figure-3 rules; the signals hidden
       before [hide] passed the same test *)
    Array.iteri
      (fun xi (p : Fourval.presence array) ->
        if not dropped.(xi) then begin
          for i = 0 to v.n - 1 do
            let r = root.(i) in
            class_presence.(r) <-
              Fourval.union (if r = i then Fourval.absent else class_presence.(r)) p.(i)
          done;
          for i = 0 to v.n - 1 do
            if root.(i) = i then
              match Fourval.merge_presence class_presence.(i) with
              | Some m -> merged.(i) <- m
              | None -> raise Reject
          done;
          let value m = merged.(root.(cover.(m))) in
          for s = 0 to ns - 1 do
            if s <> hide && not hidden.(s) then
              iter_signal s (fun e ->
                  if not (Fourval.edge_ok (value (src e)) (value (dst e))) then
                    raise Reject)
          done;
          let b = 1 lsl (ns + xi) in
          for i = 0 to v.n - 1 do
            if root.(i) = i && Fourval.binary merged.(i) then code.(i) <- code.(i) lor b
          done
        end)
      v.presence;
    (* Conflict classes of the view: full codes carried by classes of
       both implied values of [output].  Each class has one, as no class
       mixes them. *)
    count_conflicts v.n ~keep:(-1) class_implied
  in
  let evaluate hide = try Some (evaluate hide) with Reject -> None in
  (* Hides: each candidate is tested on the current view, and an
     accepted one contracts it, so later tests scan the module's
     classes, not the complete graph's states. *)
  let input_set = ref [] in
  for s = 0 to ns - 1 do
    if s <> output then
      if List.mem s immediate then input_set := s :: !input_set
      else begin
        for i = 0 to v.n - 1 do
          parent.(i) <- i
        done;
        for k = start.(s) to start.(s + 1) - 1 do
          let e = by_signal.(k) in
          Sg.Uf.union parent cover.(src e) cover.(dst e)
        done;
        (* [None]: a state signal would lose its representation, or a
           class would mix both implied values of [output] *)
        match evaluate s with
        | Some n' when n' <= !n_csc ->
          n_csc := n';
          hidden.(s) <- true;
          contract v parent ~drop:s ~cls cover
        | Some _ | None -> input_set := s :: !input_set
      end
  done;
  (* The module is the last view, its kept signals renumbered in order
     and each of their edges kept at its first occurrence: the kept
     signals' edge blocks merged back into edge order. *)
  let kept = Array.of_list (List.filter (fun s -> not hidden.(s)) (List.init ns Fun.id)) in
  let codes =
    Array.init v.n (fun c ->
        let out = ref 0 in
        Array.iteri
          (fun nw old -> if v.code.(c) land (1 lsl old) <> 0 then out := !out lor (1 lsl nw))
          kept;
        !out)
  in
  let nk = Array.length kept in
  let next = Array.map (fun s -> start.(s)) kept in
  let stop = Array.map (fun s -> start.(s + 1)) kept in
  let n_kept = Array.fold_left (fun k s -> k + start.(s + 1) - start.(s)) 0 kept in
  let msrc = Array.make n_kept 0 and mlab = Array.make n_kept 0 in
  let mdst = Array.make n_kept 0 in
  for k = 0 to n_kept - 1 do
    (* the kept signal whose next edge comes first *)
    let first = ref (-1) and e = ref (Sg.n_edges sg) in
    for nw = 0 to nk - 1 do
      let i = next.(nw) in
      if i < stop.(nw) && by_signal.(i) < !e then begin
        first := nw;
        e := by_signal.(i)
      end
    done;
    let nw = !first and e = !e in
    next.(nw) <- next.(nw) + 1;
    msrc.(k) <- cover.(src e);
    mlab.(k) <- Sg.label_code nw (Sg.edge_dir sg e);
    mdst.(k) <- cover.(dst e)
  done;
  let src, lab, dst = Sg.distinct_edges ~n:v.n ~src:msrc ~lab:mlab ~dst:mdst n_kept in
  let module_sg =
    ref @@ Sg.make ~name:(Sg.name sg)
      ~signals:
        (Array.map
           (fun s -> { Sg.sname = Sg.signal_name sg s; non_input = Sg.non_input sg s })
           kept)
      ~codes ~src ~lab ~dst ~initial:cover.(Sg.initial sg)
  in
  Array.iteri
    (fun xi (x : Sg.extra) ->
      if not dropped.(xi) then
        module_sg :=
          Sg.add_extra !module_sg ~name:x.Sg.xname
            ~values:
              (Array.init v.n (fun c ->
                   Option.get (Fourval.merge_presence v.presence.(xi).(c)))))
    extras;
  {
    output;
    input_set = List.sort Int.compare !input_set;
    immediate;
    kept_extras = List.rev !kept_extras;
    module_sg = !module_sg;
    cover;
  }

let determine sg ~output = determine_in (context sg) sg ~output
