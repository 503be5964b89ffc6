type t = {
  output : int;
  input_set : int list;
  immediate : int list;
  kept_extras : string list;
  module_sg : Sg.t;
  cover : int array;
}

(* [excitation.(m)]: bit 0 when [m] has an [output]+ edge, bit 1 for -. *)
let output_excitation sg ~output =
  let excitation = Array.make (Sg.n_states sg) 0 in
  for e = 0 to Sg.n_edges sg - 1 do
    if Sg.edge_signal sg e = output then begin
      let m = Sg.edge_src sg e in
      excitation.(m) <-
        excitation.(m) lor match Sg.edge_dir sg e with Sg.R -> 1 | Sg.F -> 2
    end
  done;
  excitation

let triggers_of sg ~output excitation =
  (* s triggers o when firing s enables a transition of o: o is excited
     after the s edge but was not before.  Concurrent signals whose firing
     merely interleaves with o's excitation do not qualify — this is the
     state-graph image of a direct causal STG arc. *)
  let trig = Array.make (Sg.n_signals sg) false in
  for e = 0 to Sg.n_edges sg - 1 do
    let s = Sg.edge_signal sg e in
    if
      s <> output
      && excitation.(Sg.edge_dst sg e) <> 0
      && excitation.(Sg.edge_src sg e) = 0
    then trig.(s) <- true
  done;
  List.filter (fun s -> trig.(s)) (List.init (Sg.n_signals sg) Fun.id)

let triggers sg ~output = triggers_of sg ~output (output_excitation sg ~output)

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
  excitation : int array;
      (** bit 0 when a member has an output+ edge, bit 1 for output- *)
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
      v.excitation.(c) <- v.excitation.(i);
      for x = 0 to Array.length v.presence - 1 do
        let p = v.presence.(x) in
        if Array.length p > 0 then p.(c) <- p.(i)
      done
    end
    else begin
      let c = cls.(r) in
      cls.(i) <- c;
      v.implied.(c) <- v.implied.(c) lor v.implied.(i);
      v.excitation.(c) <- v.excitation.(c) lor v.excitation.(i);
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

(* The implied values of [output] seen per full code, for at most [size]
   distinct codes at a time: open addressing over preallocated arrays,
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

let record t code value =
  record t code value (Hashtbl.hash code land (Array.length t.keys - 1))

let determine sg ~output =
  let n = Sg.n_states sg and ns = Sg.n_signals sg in
  let n_edges = Sg.n_edges sg and extras = Sg.extras sg in
  let excitation = output_excitation sg ~output in
  let immediate = triggers_of sg ~output excitation in
  let src e = Sg.edge_src sg e and dst e = Sg.edge_dst sg e in
  let signal e = Sg.edge_signal sg e in
  (* The edges of each signal are [by_signal.(k)] for
     [start.(s) <= k < start.(s + 1)], in edge order: each signal's
     count, summed so that [start.(s)] ends its block, then filled from
     the last edge down. *)
  let start = Array.make (ns + 1) 0 in
  for e = 0 to n_edges - 1 do
    start.(signal e) <- start.(signal e) + 1
  done;
  for s = 1 to ns do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let by_signal = Array.make n_edges 0 in
  for e = n_edges - 1 downto 0 do
    let s = signal e in
    start.(s) <- start.(s) - 1;
    by_signal.(start.(s)) <- e
  done;
  let iter_signal s f =
    for k = start.(s) to start.(s + 1) - 1 do
      f by_signal.(k)
    done
  in
  (* [unmergeable.(x).(s)]: some edge of signal s carries a pair of
     extra x's values that fails [Fourval.edge_ok], so no view hiding s
     can keep x. *)
  let unmergeable =
    Array.map
      (fun (x : Sg.extra) ->
        let bad = Array.make ns false in
        for e = 0 to n_edges - 1 do
          if not (Fourval.edge_ok x.Sg.values.(src e) x.Sg.values.(dst e)) then
            bad.(signal e) <- true
        done;
        bad)
      extras
  in
  (* The first view: one node per state. *)
  let v =
    {
      n;
      code = Array.init n (Sg.code sg);
      implied =
        Array.init n (fun m ->
            let x = excitation.(m) in
            if (if Sg.bit sg m output then x land 2 = 0 else x land 1 <> 0) then 2
            else 1);
      excitation;
      presence =
        Array.map
          (fun (x : Sg.extra) -> Array.map (Fourval.present Fourval.absent) x.Sg.values)
          extras;
    }
  in
  let parent = Sg.Uf.create n and cls = Array.make n 0 in
  let cover = Array.init n Fun.id in
  let hidden = Array.make ns false and dropped = Array.make (Array.length extras) false in
  (* Per-class scratch, indexed by class root. *)
  let root = Array.make v.n 0 and class_implied = Array.make v.n 0 in
  let class_excitation = Array.make v.n 0 and code = Array.make v.n 0 in
  let n_extra_slots = if Array.length extras = 0 then 0 else v.n in
  let class_presence = Array.make n_extra_slots Fourval.absent in
  let merged = Array.make n_extra_slots Fourval.V0 in
  let width = ns + Array.length extras in
  let codes_seen = code_table (if width >= 30 then v.n else min v.n (1 lsl width)) in
  let out_bit = 1 lsl output in
  (* The decision a quotient + homogeneity + conflict count would make
     on the view of [v]'s classes under [parent], with [hide] (or no
     signal, when [-1]) hidden as well, read off the classes without
     building it: [None] when the view does not exist or (with
     [~homogeneity]) a class mixes both implied values of [output], else
     the number of full codes of the view whose classes imply both
     values of [output].  Full codes put the [xi]-th state signal at bit
     [ns + xi], as {!Sg.full_code} does. *)
  let evaluate ~homogeneity ~hide =
    let hbit = if hide < 0 then 0 else 1 lsl hide in
    for i = 0 to v.n - 1 do
      (* a root is its class's lowest node, so it is met first *)
      let r = Sg.Uf.find parent i in
      root.(i) <- r;
      if r = i then begin
        class_implied.(i) <- 0;
        class_excitation.(i) <- 0;
        code.(i) <- v.code.(i) land lnot hbit
      end;
      let im = class_implied.(r) lor v.implied.(i) in
      (* A merge class mixing both implied values of [output] would make
         the output's logic ill-defined over the module, and would hide a
         conflict this module is responsible for. *)
      if homogeneity && im = 3 then raise Reject;
      class_implied.(r) <- im;
      class_excitation.(r) <- class_excitation.(r) lor v.excitation.(i)
    done;
    (* kept extras merged with the Figure-3 rules; the signals hidden
       before [hide] passed the same test *)
    Array.iteri
      (fun xi (p : Fourval.presence array) ->
        if not dropped.(xi) then begin
          let bad = unmergeable.(xi) in
          if hide >= 0 && bad.(hide) then raise Reject;
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
    (* Conflict classes of the view: full codes carried by classes of both
       implied values of [output].  [output] is never hidden, so each of
       its edges leaves its class, and a class is excited on [output]
       exactly when one of its members is. *)
    codes_seen.epoch <- codes_seen.epoch + 1;
    let conflicts = ref 0 in
    for i = 0 to v.n - 1 do
      if root.(i) = i then begin
        let x = class_excitation.(i) in
        let implies_1 =
          if v.code.(i) land out_bit <> 0 then x land 2 = 0 else x land 1 <> 0
        in
        let value = if implies_1 then 2 else 1 in
        let seen = record codes_seen code.(i) value in
        if seen lor value = 3 && seen <> 3 then incr conflicts
      end
    done;
    !conflicts
  in
  let evaluate ~homogeneity ~hide =
    try Some (evaluate ~homogeneity ~hide) with Reject -> None
  in
  let identity () =
    for i = 0 to v.n - 1 do
      parent.(i) <- i
    done
  in
  identity ();
  let n_csc = ref (Option.get (evaluate ~homogeneity:false ~hide:(-1))) in
  (* State signals first: an inserted signal that is irrelevant to this
     output would otherwise block the ε-merging of the region it toggles
     in (its rise and fall would land in one class), inflating the
     module.  Dropping is safe whenever this output's conflicts do not
     increase. *)
  let kept_extras = ref [] in
  Array.iteri
    (fun xi (x : Sg.extra) ->
      dropped.(xi) <- true;
      match evaluate ~homogeneity:false ~hide:(-1) with
      | Some n' when n' <= !n_csc -> n_csc := n'
      | Some _ | None ->
        dropped.(xi) <- false;
        kept_extras := x.Sg.xname :: !kept_extras)
    extras;
  Array.iteri (fun xi d -> if d then v.presence.(xi) <- [||]) dropped;
  (* Hides: each candidate is tested on the current view, and an
     accepted one contracts it, so later tests scan the module's
     classes, not the complete graph's states. *)
  let input_set = ref [] in
  for s = 0 to ns - 1 do
    if s <> output then
      if List.mem s immediate then input_set := s :: !input_set
      else begin
        identity ();
        for k = start.(s) to start.(s + 1) - 1 do
          let e = by_signal.(k) in
          Sg.Uf.union parent cover.(src e) cover.(dst e)
        done;
        (* [None]: a state signal would lose its representation, or a
           class would mix both implied values of [output] *)
        match evaluate ~homogeneity:true ~hide:s with
        | Some n' when n' <= !n_csc ->
          n_csc := n';
          hidden.(s) <- true;
          contract v parent ~drop:s ~cls cover
        | Some _ | None -> input_set := s :: !input_set
      end
  done;
  (* The module is the last view, its kept signals renumbered in order
     and each of their edges kept at its first occurrence. *)
  let kept = Array.of_list (List.filter (fun s -> not hidden.(s)) (List.init ns Fun.id)) in
  let new_of_old = Array.make ns (-1) in
  Array.iteri (fun nw old -> new_of_old.(old) <- nw) kept;
  let codes =
    Array.init v.n (fun c ->
        let out = ref 0 in
        Array.iteri
          (fun nw old -> if v.code.(c) land (1 lsl old) <> 0 then out := !out lor (1 lsl nw))
          kept;
        !out)
  in
  let n_kept = Array.fold_left (fun k s -> k + start.(s + 1) - start.(s)) 0 kept in
  let msrc = Array.make n_kept 0 and mlab = Array.make n_kept 0 in
  let mdst = Array.make n_kept 0 and len = ref 0 in
  for e = 0 to n_edges - 1 do
    let s = signal e in
    if not hidden.(s) then begin
      msrc.(!len) <- cover.(src e);
      mlab.(!len) <- Sg.label_code new_of_old.(s) (Sg.edge_dir sg e);
      mdst.(!len) <- cover.(dst e);
      incr len
    end
  done;
  let src, lab, dst = Sg.distinct_edges ~n:v.n ~src:msrc ~lab:mlab ~dst:mdst !len in
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
