type edge_dir = R | F
type signal_info = { sname : string; non_input : bool }
type extra = { xname : string; values : Fourval.t array }

type t = {
  name : string;
  signals : signal_info array;
  codes : int array;
  (* edge [e] runs from [src.(e)] to [dst.(e)] under label code [lab.(e)] *)
  src : int array;
  lab : int array;
  dst : int array;
  (* the edges out of [m] are [out_edges.(i)] for [out_start.(m) <= i <
     out_start.(m + 1)], in edge order; [in_start]/[in_edges] likewise
     for the edges into [m] *)
  out_start : int array;
  out_edges : int array;
  in_start : int array;
  in_edges : int array;
  extras : extra array;
  initial : int;
}

exception Inconsistent of string

let fail fmt = Format.kasprintf (fun s -> raise (Inconsistent s)) fmt
let label_code s d = (2 * s) + match d with R -> 0 | F -> 1

(* The edge ids grouped by [ends.(e)] in CSR form, each group in edge
   order: every end's count, summed so that [start.(m)] ends its block,
   then filled from the last edge down. *)
let csr n ends =
  let len = Array.length ends in
  let start = Array.make (n + 1) 0 in
  Array.iter (fun m -> start.(m) <- start.(m) + 1) ends;
  for m = 1 to n do
    start.(m) <- start.(m) + start.(m - 1)
  done;
  let ids = Array.make len 0 in
  for e = len - 1 downto 0 do
    let m = ends.(e) in
    start.(m) <- start.(m) - 1;
    ids.(start.(m)) <- e
  done;
  (start, ids)

(* The graph over parts already checked.  The adjacency is resolved once
   here, so the per-state iterators, which the CSC sweeps call millions
   of times, allocate nothing. *)
let build ~name ~signals ~codes ~src ~lab ~dst ~initial =
  let n = Array.length codes in
  let out_start, out_edges = csr n src and in_start, in_edges = csr n dst in
  let extras = [||] in
  { name; signals; codes; src; lab; dst; out_start; out_edges; in_start; in_edges; extras; initial }

let make ~name ~signals ~codes ~src ~lab ~dst ~initial =
  let n = Array.length codes in
  if Array.length signals > 62 then fail "more than 62 visible signals";
  if n = 0 then fail "state graph with no states";
  if initial < 0 || initial >= n then fail "initial state out of range";
  let len = Array.length src in
  if Array.length lab <> len || Array.length dst <> len then
    fail "edge arrays of different lengths";
  let bit c s = c land (1 lsl s) <> 0 in
  for e = 0 to len - 1 do
    let a = src.(e) and b = dst.(e) and s = lab.(e) asr 1 in
    if a < 0 || a >= n || b < 0 || b >= n then fail "edge endpoint out of range";
    if s < 0 || s >= Array.length signals then
      fail "edge %d->%d fires unknown signal %d" a b s;
    let rising = lab.(e) land 1 = 0 in
    if bit codes.(a) s = rising || bit codes.(b) s <> rising then
      fail "edge %d->%d violates consistency on signal %s" a b signals.(s).sname;
    if codes.(a) lxor codes.(b) <> 1 lsl s then
      fail "edge %d->%d changes signals other than %s" a b signals.(s).sname
  done;
  build ~name ~signals ~codes ~src ~lab ~dst ~initial

let name sg = sg.name
let n_states sg = Array.length sg.codes
let n_signals sg = Array.length sg.signals
let n_edges sg = Array.length sg.src
let initial sg = sg.initial
let signal_name sg s = sg.signals.(s).sname
let non_input sg s = sg.signals.(s).non_input

let find_signal sg n =
  let rec go i =
    if i >= Array.length sg.signals then raise Not_found
    else if sg.signals.(i).sname = n then i
    else go (i + 1)
  in
  go 0

let code sg m = sg.codes.(m)
let bit sg m s = sg.codes.(m) land (1 lsl s) <> 0
let edge_src sg e = sg.src.(e)
let edge_dst sg e = sg.dst.(e)
let edge_label sg e = sg.lab.(e)
let edge_signal sg e = sg.lab.(e) lsr 1
let edge_dir sg e = if sg.lab.(e) land 1 = 0 then R else F

let iter_succ sg m f =
  for i = sg.out_start.(m) to sg.out_start.(m + 1) - 1 do
    f sg.out_edges.(i)
  done

let iter_pred sg m f =
  for i = sg.in_start.(m) to sg.in_start.(m + 1) - 1 do
    f sg.in_edges.(i)
  done

let exists_in ids p i stop =
  let rec go i = i < stop && (p ids.(i) || go (i + 1)) in
  go i

let exists_succ sg m p =
  exists_in sg.out_edges p sg.out_start.(m) sg.out_start.(m + 1)

let exists_pred sg m p = exists_in sg.in_edges p sg.in_start.(m) sg.in_start.(m + 1)
let out_degree sg m = sg.out_start.(m + 1) - sg.out_start.(m)
let extras sg = sg.extras
let n_extras sg = Array.length sg.extras

let shares_edges a b =
  a.codes == b.codes && a.src == b.src && a.lab == b.lab && a.dst == b.dst

(* [Fourval.edge_ok] along every edge, or [fail] with the first edge
   that breaks it. *)
let check_values sg values fail_edge =
  for e = 0 to n_edges sg - 1 do
    let a = sg.src.(e) and b = sg.dst.(e) in
    if not (Fourval.edge_ok values.(a) values.(b)) then fail_edge a b
  done

let add_extra sg ~name ~values =
  if Array.length values <> n_states sg then
    fail "extra %s: %d values for %d states" name (Array.length values)
      (n_states sg);
  check_values sg values (fun a b ->
      fail "extra %s: illegal value pair %s -> %s on edge %d->%d" name
        (Fourval.to_string values.(a))
        (Fourval.to_string values.(b))
        a b);
  if Array.exists (fun x -> x.xname = name) sg.extras then
    fail "extra %s already present" name;
  { sg with extras = Array.append sg.extras [| { xname = name; values } |] }

let set_extra_values sg ~index ~values =
  if index < 0 || index >= n_extras sg then
    invalid_arg "Sg.set_extra_values: bad index";
  let x = sg.extras.(index) in
  if Array.length values <> n_states sg then
    fail "extra %s: wrong number of values" x.xname;
  check_values sg values (fun a b ->
      fail "extra %s: illegal value pair on edge %d->%d" x.xname a b);
  let extras = Array.copy sg.extras in
  extras.(index) <- { x with values };
  { sg with extras }

let full_width sg = n_signals sg + n_extras sg

let full_code sg m =
  let c = ref sg.codes.(m) and ns = n_signals sg in
  for i = 0 to Array.length sg.extras - 1 do
    if Fourval.binary sg.extras.(i).values.(m) then c := !c lor (1 lsl (ns + i))
  done;
  !c

let excited_events sg m =
  let evs = ref [] in
  iter_succ sg m (fun e -> evs := (edge_signal sg e, edge_dir sg e) :: !evs);
  List.sort_uniq compare !evs

let excitation_masks sg =
  let n = n_states sg in
  let rise = Array.make n 0 and fall = Array.make n 0 in
  for e = 0 to n_edges sg - 1 do
    let s = edge_signal sg e in
    if sg.signals.(s).non_input then begin
      let mask = if sg.lab.(e) land 1 = 0 then rise else fall in
      mask.(sg.src.(e)) <- mask.(sg.src.(e)) lor (1 lsl s)
    end
  done;
  (rise, fall)

let full_excitation_masks sg =
  let rise, fall = excitation_masks sg in
  let ns = n_signals sg in
  Array.iteri
    (fun i x ->
      let bit = 1 lsl (ns + i) in
      Array.iteri
        (fun m v ->
          match v with
          | Fourval.Up -> rise.(m) <- rise.(m) lor bit
          | Fourval.Dn -> fall.(m) <- fall.(m) lor bit
          | Fourval.V0 | Fourval.V1 -> ())
        x.values)
    sg.extras;
  (rise, fall)

let implied_value sg m s =
  let excited dir =
    let l = label_code s dir in
    exists_succ sg m (fun e -> sg.lab.(e) = l)
  in
  if bit sg m s then not (excited F) else excited R

(* ------------------------------------------------------------------ *)
(* ε-merging                                                           *)
(* ------------------------------------------------------------------ *)

module Uf = struct
  let create n = Array.init n Fun.id

  let rec find uf i =
    if uf.(i) = i then i
    else begin
      let r = find uf uf.(i) in
      uf.(i) <- r;
      r
    end

  let union uf i j =
    let ri = find uf i and rj = find uf j in
    if ri <> rj then uf.(max ri rj) <- min ri rj
end

(* The class of every state, classes numbered densely in order of first
   member, and the class count. *)
let classes uf n =
  let class_id = Array.make n (-1) in
  let n_classes = ref 0 in
  for m = 0 to n - 1 do
    let r = Uf.find uf m in
    if class_id.(r) < 0 then begin
      class_id.(r) <- !n_classes;
      incr n_classes
    end
  done;
  (Array.init n (fun m -> class_id.(Uf.find uf m)), !n_classes)

(* ------------------------------------------------------------------ *)
(* Grouping by an int key                                              *)
(* ------------------------------------------------------------------ *)

module Slots = struct
  type t = { bits : int; owner : int array; key : int array; value : int array }

  let create n =
    let bits = ref 1 in
    while 1 lsl !bits < 2 * n do
      incr bits
    done;
    let size = 1 lsl !bits in
    {
      bits = !bits;
      owner = Array.make size (-1);
      key = Array.make size 0;
      value = Array.make size (-1);
    }

  (* linear probing from a multiplicative hash of [x]: the slot holding
     [x] for [owner], or the free slot where it would go; a slot held by
     another owner is free *)
  let probe t ~owner x =
    let mask = Array.length t.owner - 1 in
    let h = ref ((x * 0x2545F4914F6CDD1D) lsr (63 - t.bits)) in
    while t.owner.(!h) = owner && t.key.(!h) <> x do
      h := (!h + 1) land mask
    done;
    !h

  let slot t ~owner x =
    let h = probe t ~owner x in
    if t.owner.(h) <> owner then begin
      t.owner.(h) <- owner;
      t.key.(h) <- x;
      t.value.(h) <- -1
    end;
    h

  let find t ~owner x =
    let h = probe t ~owner x in
    if t.owner.(h) = owner then h else -1

  let get t h = t.value.(h)
  let set t h v = t.value.(h) <- v
end

let group_by n key =
  let t = Slots.create n in
  let head = Array.make n 0 and next = Array.make n (-1) in
  (* from the last state down, each slot's value is the least state
     with its key so far *)
  for m = n - 1 downto 0 do
    let h = Slots.slot t ~owner:0 (key m) in
    next.(m) <- Slots.get t h;
    Slots.set t h m;
    head.(m) <- h
  done;
  for m = 0 to n - 1 do
    head.(m) <- Slots.get t head.(m)
  done;
  (head, next)

let sort_by n ~bits key =
  let order = ref (Array.init n Fun.id) and into = ref (Array.make n 0) in
  let count = Array.make 257 0 in
  let shift = ref 0 in
  while !shift < bits do
    let a = !order and b = !into and sh = !shift in
    Array.fill count 0 257 0;
    for k = 0 to n - 1 do
      let j = ((key a.(k) lsr sh) land 255) + 1 in
      count.(j) <- count.(j) + 1
    done;
    for j = 1 to 256 do
      count.(j) <- count.(j) + count.(j - 1)
    done;
    for k = 0 to n - 1 do
      let m = a.(k) in
      let j = (key m lsr sh) land 255 in
      b.(count.(j)) <- m;
      count.(j) <- count.(j) + 1
    done;
    order := b;
    into := a;
    shift := sh + 8
  done;
  !order

(* An edge labelled [l] into [d] is among the kept edges chained from
   [j] on. *)
let rec chained lab dst prev l d j =
  j >= 0 && ((lab.(j) = l && dst.(j) = d) || chained lab dst prev l d prev.(j))

let distinct_edges ~n ~src ~lab ~dst len =
  (* [last.(s)] is the latest edge kept out of [s] and [prev.(k)] the
     one kept out of the same source before [k]: each source's chain
     holds its distinct edges so far, a handful per state. *)
  let last = Array.make n (-1) and prev = Array.make len (-1) in
  let kept = ref 0 in
  for i = 0 to len - 1 do
    let s = src.(i) and l = lab.(i) and d = dst.(i) in
    if not (chained lab dst prev l d last.(s)) then begin
      let k = !kept in
      src.(k) <- s;
      lab.(k) <- l;
      dst.(k) <- d;
      prev.(k) <- last.(s);
      last.(s) <- k;
      incr kept
    end
  done;
  let cut a = if !kept = Array.length a then a else Array.sub a 0 !kept in
  (cut src, cut lab, cut dst)

(* ------------------------------------------------------------------ *)
(* Derivation from an STG                                              *)
(* ------------------------------------------------------------------ *)

type edge_kind = Krise | Kfall | Ktoggle | Ksilent

(* Edge [e] of a flat buffer is [(buf.(3e), buf.(3e+1), buf.(3e+2))]. *)
let e_src buf e = buf.(3 * e)
let e_trans buf e = buf.((3 * e) + 1)
let e_dst buf e = buf.((3 * e) + 2)

(* The edges at each state in CSR form: state [m]'s are [inc.(i)] for
   [start.(m) <= i < start.(m + 1)], in edge order, each edge listed at
   both of its ends. *)
let incidence ~n ~n_edges buf =
  let start = Array.make (n + 1) 0 in
  let count m = start.(m + 1) <- start.(m + 1) + 1 in
  for e = 0 to n_edges - 1 do
    count (e_src buf e);
    count (e_dst buf e)
  done;
  for m = 1 to n do
    start.(m) <- start.(m) + start.(m - 1)
  done;
  let next = Array.sub start 0 n and inc = Array.make (2 * n_edges) 0 in
  let add m e =
    inc.(next.(m)) <- e;
    next.(m) <- next.(m) + 1
  in
  for e = 0 to n_edges - 1 do
    add (e_src buf e) e;
    add (e_dst buf e) e
  done;
  (start, inc)

(* The consistent assignment of signal [s] alone, solved as the
   original one-signal-at-a-time solver did: seeds from [s]'s rises and
   falls in edge order, FIFO propagation over each state's edges newest
   first, then the lowest unassigned state anchored at 0.  It raises
   the [Inconsistent] message that solver raised — naming the same
   state — and returns normally when [s] is consistent. *)
let solve_signal stg ~n ~n_edges buf (start, inc) kinds s =
  let v = Array.make n (-1) and queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  let assign m x =
    if v.(m) < 0 then begin
      v.(m) <- x;
      queue.(!tail) <- m;
      incr tail
    end
    else if v.(m) <> x then
      fail "signal %s has no consistent value assignment (state %d)"
        (Stg.signal_name stg s) m
  in
  for e = 0 to n_edges - 1 do
    let sig_, k = kinds.(e_trans buf e) in
    if sig_ = s then
      match k with
      | Krise ->
        assign (e_src buf e) 0;
        assign (e_dst buf e) 1
      | Kfall ->
        assign (e_src buf e) 1;
        assign (e_dst buf e) 0
      | Ktoggle | Ksilent -> ()
  done;
  let propagate () =
    while !head < !tail do
      let m = queue.(!head) in
      incr head;
      for i = start.(m + 1) - 1 downto start.(m) do
        let e = inc.(i) in
        let sig_, k = kinds.(e_trans buf e) in
        let m' = if e_src buf e = m then e_dst buf e else e_src buf e in
        assign m' (if sig_ = s && k <> Ksilent then 1 - v.(m) else v.(m))
      done
    done
  in
  propagate ();
  for m = 0 to n - 1 do
    if v.(m) < 0 then begin
      assign m 0;
      propagate ()
    end
  done;
  for e = 0 to n_edges - 1 do
    let sig_, k = kinds.(e_trans buf e) in
    let a = v.(e_src buf e) and b = v.(e_dst buf e) in
    let fine =
      match (sig_ = s, k) with
      | true, Krise -> a = 0 && b = 1
      | true, Kfall -> a = 1 && b = 0
      | true, Ktoggle -> a = 1 - b
      | true, Ksilent | false, _ -> a = b
    in
    if not fine then
      fail "signal %s: inconsistent assignment across an edge"
        (Stg.signal_name stg s)
  done

let of_transition_edges stg ~n_states:n ~n_edges buf =
  let ns = Stg.n_signals stg in
  (* one kind per transition, shared by every edge that fires it *)
  let kinds =
    Array.init (Petri.n_transitions (Stg.net stg)) (fun t ->
        match Stg.label stg t with
        | Stg.Dummy -> (-1, Ksilent)
        | Stg.Event e ->
          ( e.Signal.signal,
            match e.Signal.dir with
            | Signal.Rise -> Krise
            | Signal.Fall -> Kfall
            | Signal.Toggle -> Ktoggle ))
  in
  let ((start, inc) as incident) = incidence ~n ~n_edges buf in
  let solve_signal = solve_signal stg ~n ~n_edges buf incident kinds in
  if ns > 62 then begin
    for s = 0 to ns - 1 do
      solve_signal s
    done;
    fail "more than 62 visible signals"
  end;
  (* the code bits a transition flips *)
  let delta = Array.map (fun (s, k) -> if k = Ksilent then 0 else 1 lsl s) kinds in
  (* One BFS per connected component, from its lowest state [root.(m)]:
     [rel.(m)] is [m]'s code relative to the root's. *)
  let rel = Array.make n 0 and root = Array.make n (-1) in
  let queue = Array.make n 0 in
  for r = 0 to n - 1 do
    if root.(r) < 0 then begin
      root.(r) <- r;
      queue.(0) <- r;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let m = queue.(!head) in
        incr head;
        for i = start.(m) to start.(m + 1) - 1 do
          let e = inc.(i) in
          let m' = if e_src buf e = m then e_dst buf e else e_src buf e in
          if root.(m') < 0 then begin
            root.(m') <- r;
            rel.(m') <- rel.(m) lxor delta.(e_trans buf e);
            queue.(!tail) <- m';
            incr tail
          end
        done
      done
    end
  done;
  (* One check of every edge.  [bad] collects the signals whose
     flip-parity fails on some edge, or whose rises and falls disagree
     on the root's value; [known.(r)] holds the root bits a rise or fall
     has fixed and [base.(r)] their values.  A bit nothing fixes (a
     pure-toggle signal) reads 0 at the root, its component's lowest
     state. *)
  let known = Array.make n 0 and base = Array.make n 0 and bad = ref 0 in
  for e = 0 to n_edges - 1 do
    let src = e_src buf e and t = e_trans buf e in
    let d = delta.(t) in
    bad := !bad lor (rel.(src) lxor rel.(e_dst buf e) lxor d);
    match snd kinds.(t) with
    | (Krise | Kfall) as k ->
      (* the root bit that makes [src] read 0 before a rise, 1 before a fall *)
      let want = (rel.(src) lxor if k = Kfall then d else 0) land d in
      let r = root.(src) in
      if known.(r) land d = 0 then begin
        known.(r) <- known.(r) lor d;
        base.(r) <- base.(r) lor want
      end
      else bad := !bad lor ((base.(r) land d) lxor want)
    | Ktoggle | Ksilent -> ()
  done;
  if !bad <> 0 then begin
    (* the lowest inconsistent signal is the one the per-signal solver
       stopped at; replay it for its message *)
    let rec lowest s = if !bad land (1 lsl s) <> 0 then s else lowest (s + 1) in
    let s = lowest 0 in
    solve_signal s;
    fail "signal %s: inconsistent assignment across an edge" (Stg.signal_name stg s)
  end;
  (* Merge the states joined by dummy transitions, classes numbered by
     first member and each projected edge kept at its first occurrence.
     A silent edge flips no bit, so a class's code is any member's. *)
  let uf = Uf.create n in
  for e = 0 to n_edges - 1 do
    if delta.(e_trans buf e) = 0 then Uf.union uf (e_src buf e) (e_dst buf e)
  done;
  let cls, nc = classes uf n in
  let codes = Array.make nc 0 in
  for m = 0 to n - 1 do
    codes.(cls.(m)) <- rel.(m) lxor base.(root.(m))
  done;
  (* the projected edges, labels coded as [label_code] does *)
  let src = Array.make n_edges 0 and lab = Array.make n_edges 0 in
  let dst = Array.make n_edges 0 and len = ref 0 in
  for e = 0 to n_edges - 1 do
    let s, k = kinds.(e_trans buf e) in
    let c = cls.(e_src buf e) in
    let label =
      match k with
      | Ksilent -> -1
      | Krise -> 2 * s
      | Kfall -> (2 * s) + 1
      | Ktoggle -> (2 * s) + ((codes.(c) lsr s) land 1)
    in
    if label >= 0 then begin
      src.(!len) <- c;
      lab.(!len) <- label;
      dst.(!len) <- cls.(e_dst buf e);
      incr len
    end
  done;
  let src, lab, dst = distinct_edges ~n:nc ~src ~lab ~dst !len in
  let signals =
    Array.init ns (fun s ->
        {
          sname = Stg.signal_name stg s;
          non_input = Signal.non_input (Stg.kind stg s);
        })
  in
  build ~name:(Stg.name stg) ~signals ~codes ~src ~lab ~dst ~initial:cls.(0)

let log_src = Logs.Src.create "mpsyn.sg" ~doc:"state-graph construction"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Both engines return identical edge buffers (the symbolic builder
   replays the explicit numbering from its fixpoint and falls back
   outside the 1-safe encoding), so everything downstream is
   engine-oblivious and the digests agree — tests enforce it. *)
let explore ?max_states engine stg =
  let net = Stg.net stg in
  match engine with
  | `Explicit ->
    let g = Reach.explore ?max_states net in
    (Reach.n_states g, g.Reach.edges, Reach.n_edges g)
  | `Symbolic -> Symbolic.explore_edges ?max_states net

(* One sweep under the caller's cap: on an encodable net the symbolic
   engine's bitmask sweep ([Symbolic.probe_edges], the explicit sweep's
   edges at a mask test per edge, handing an unsafe firing to
   [Reach.explore]), on any other net [Reach.explore].  The debug line
   names the sweep, and for a net the encoding refused, why. *)
let reachable ?(max_states = 100_000) stg =
  let net = Stg.net stg in
  let engine, ((n, _, _) as g) =
    match Symenc.unsupported net with
    | Some reason ->
      ( Printf.sprintf "explicit engine (%s)" reason,
        explore ~max_states `Explicit stg )
    | None ->
      ("explicit engine", Symbolic.probe_edges ~max_states (Symenc.make net))
  in
  Log.debug (fun m -> m "reachability: %s, %d states" engine n);
  g

let of_stg ?max_states ?backend stg =
  let n, buf, n_edges =
    match backend with
    | None -> reachable ?max_states stg
    | Some engine -> explore ?max_states engine stg
  in
  of_transition_edges stg ~n_states:n ~n_edges buf

(* ------------------------------------------------------------------ *)
(* Content digest                                                      *)
(* ------------------------------------------------------------------ *)

(* An explicit structural dump, not [Marshal]: marshaling bakes the
   physical sharing pattern of the arrays into the bytes, so a graph
   rebuilt from a cache entry could digest differently from the graph
   it was built from.  The dump covers exactly the logical content —
   name, signals, codes, edges, extras, initial — and two graphs with
   equal content digest identically no matter how they were produced. *)
let digest sg =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  add sg.name;
  add "\x00";
  Array.iter
    (fun si ->
      add si.sname;
      add (if si.non_input then "!" else "?"))
    sg.signals;
  add "\x00";
  Array.iter (fun c -> Buffer.add_string buf (string_of_int c ^ ",")) sg.codes;
  add "\x00";
  for e = 0 to n_edges sg - 1 do
    Buffer.add_string buf
      (Printf.sprintf "%d%c%d:%d;" sg.src.(e)
         (if sg.lab.(e) land 1 = 0 then '+' else '-')
         (edge_signal sg e) sg.dst.(e))
  done;
  add "\x00";
  Array.iter
    (fun x ->
      add x.xname;
      add ":";
      Array.iter
        (fun v ->
          Buffer.add_char buf
            (match v with
            | Fourval.V0 -> '0'
            | Fourval.V1 -> '1'
            | Fourval.Up -> 'u'
            | Fourval.Dn -> 'd'))
        x.values;
      add ";")
    sg.extras;
  add "\x00";
  add (string_of_int sg.initial);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let pp_event sg ppf (s, d) =
  Format.fprintf ppf "%s%c" sg.signals.(s).sname (match d with R -> '+' | F -> '-')

let pp_state sg ppf m =
  for s = 0 to n_signals sg - 1 do
    Format.fprintf ppf "%c" (if bit sg m s then '1' else '0')
  done;
  Array.iter
    (fun x -> Format.fprintf ppf "{%s}" (Fourval.to_string x.values.(m)))
    sg.extras

let to_dot sg =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph \"%s\" {\n" sg.name);
  for m = 0 to n_states sg - 1 do
    Buffer.add_string buf
      (Format.asprintf "  s%d [label=\"%a\"%s];\n" m (pp_state sg) m
         (if m = sg.initial then ",shape=doublecircle" else ""))
  done;
  for e = 0 to n_edges sg - 1 do
    Buffer.add_string buf
      (Format.asprintf "  s%d -> s%d [label=\"%a\"];\n" sg.src.(e) sg.dst.(e)
         (pp_event sg) (edge_signal sg e, edge_dir sg e))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
