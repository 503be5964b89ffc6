(* Σ as [Sg.of_stg] built it before the one-pass XOR coding: the
   consistent state assignment solved one signal at a time by a [Queue]
   BFS over boxed adjacency lists, the ε-merge by union-find, and the
   projected edges deduplicated through a hash table.  The reference
   the test-suite compares [Sg.of_stg]'s digests and [Sg.Inconsistent]
   messages against, under both reachability engines.  [quotient] is
   the ε-quotient [Determine_ref] builds its module with. *)

open Sg
open Sg_records

let fail fmt = Format.kasprintf (fun s -> raise (Inconsistent s)) fmt

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

(* [quotient sg ~keep_signal ~keep_extra] hides every visible signal [s]
   with [not (keep_signal s)] (its edges become ε) and drops every extra
   [x] with [not (keep_extra x.xname)], then merges ε-connected states.
   Kept extras are merged with the Figure-3 rules.  Returns the merged
   graph and the cover map (old state -> merged state), or [None] when
   some kept extra cannot be merged consistently (the paper's condition
   for a signal that cannot be removed). *)
let quotient sg ~keep_signal ~keep_extra =
  let n = n_states sg in
  let uf = Uf.create n in
  let hidden_edge e = match e.label with Ev (s, _) -> not (keep_signal s) in
  Array.iter (fun e -> if hidden_edge e then Uf.union uf e.src e.dst) (edges sg);
  let cover, nc = classes uf n in
  let cls m = cover.(m) in
  (* Signal renumbering. *)
  let kept_signals = ref [] in
  for s = n_signals sg - 1 downto 0 do
    if keep_signal s then kept_signals := s :: !kept_signals
  done;
  let kept_signals = Array.of_list !kept_signals in
  let new_of_old = Array.make (n_signals sg) (-1) in
  Array.iteri (fun nw old -> new_of_old.(old) <- nw) kept_signals;
  let project_code c =
    let out = ref 0 in
    Array.iteri (fun nw old -> if c land (1 lsl old) <> 0 then out := !out lor (1 lsl nw)) kept_signals;
    !out
  in
  let new_codes = Array.make nc 0 in
  let seen = Array.make nc false in
  for m = 0 to n - 1 do
    let c = cls m in
    let pc = project_code (code sg m) in
    if not seen.(c) then begin
      new_codes.(c) <- pc;
      seen.(c) <- true
    end
    else assert (new_codes.(c) = pc)
  done;
  (* Merge kept extras with the Figure-3 rules. *)
  let exception Bad_merge in
  try
    let new_extras =
      Array.of_list
        (List.filter_map
           (fun x ->
             if not (keep_extra x.xname) then None
             else begin
               (* every ε'd edge must be a legal directed pair *)
               Array.iter
                 (fun e ->
                   if hidden_edge e
                      && not (Fourval.edge_ok x.values.(e.src) x.values.(e.dst))
                   then raise Bad_merge)
                 (edges sg);
               let members = Array.make nc [] in
               for m = n - 1 downto 0 do
                 members.(cls m) <- x.values.(m) :: members.(cls m)
               done;
               let values =
                 Array.map
                   (fun vs ->
                     match Fourval.merge vs with
                     | Some v -> v
                     | None -> raise Bad_merge)
                   members
               in
               (* remaining cross-class edges must stay consistent *)
               Array.iter
                 (fun e ->
                   if not (hidden_edge e)
                      && not (Fourval.edge_ok values.(cls e.src) values.(cls e.dst))
                   then raise Bad_merge)
                 (edges sg);
               Some { xname = x.xname; values }
             end)
           (Array.to_list (extras sg)))
    in
    let projected =
      Array.of_list
        (List.filter
           (fun e -> match e.label with Ev (s, _) -> keep_signal s)
           (Array.to_list (edges sg)))
    in
    let src = Array.map (fun e -> cls e.src) projected in
    let dst = Array.map (fun e -> cls e.dst) projected in
    let lab =
      Array.map
        (fun e -> match e.label with Ev (s, d) -> label_code new_of_old.(s) d)
        projected
    in
    let src, lab, dst = distinct_edges ~n:nc ~src ~lab ~dst (Array.length projected) in
    let signals =
      Array.map
        (fun old -> { sname = signal_name sg old; non_input = non_input sg old })
        kept_signals
    in
    let base =
      Sg.make ~name:(name sg) ~signals ~codes:new_codes ~src ~lab ~dst
        ~initial:(cls (initial sg))
    in
    (* each kept edge passed [Fourval.edge_ok] above *)
    let add g x = add_extra g ~name:x.xname ~values:x.values in
    Some (Array.fold_left add base new_extras, cover)
  with Bad_merge -> None

(* [edges], between states below [n], with each edge kept at its first
   occurrence only.  An edge is keyed by one int (at most 62 signals
   leave 7 bits for the label), which hashes far cheaper than the
   record. *)
let first_occurrences ~n edges =
  let seen = Hashtbl.create 4096 in
  List.filter
    (fun e ->
      let label =
        match e.label with Ev (s, R) -> 2 * s | Ev (s, F) -> (2 * s) + 1
      in
      let key = (((e.src * 128) + label) * n) + e.dst in
      (not (Hashtbl.mem seen key))
      && begin
           Hashtbl.add seen key ();
           true
         end)
    edges

type edge_kind = Krise | Kfall | Ktoggle | Ksilent

let of_transition_edges stg ~n_states:n edges =
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
  (* Solve the consistent state assignment, one signal at a time, by
     propagating equality/flip constraints over the reachability graph. *)
  let values = Array.make_matrix ns n (-1) in
  let adj = Array.make n [] in
  Array.iter
    (fun (src, t, dst) ->
      adj.(src) <- (dst, kinds.(t)) :: adj.(src);
      adj.(dst) <- (src, kinds.(t)) :: adj.(dst))
    edges;
  for s = 0 to ns - 1 do
    let v = values.(s) in
    let queue = Queue.create () in
    let assign m x =
      if v.(m) < 0 then begin
        v.(m) <- x;
        Queue.add m queue
      end
      else if v.(m) <> x then
        fail "signal %s has no consistent value assignment (state %d)"
          (Stg.signal_name stg s) m
    in
    (* Seed from rising/falling transitions of s. *)
    Array.iter
      (fun (src, t, dst) ->
        let sig_, k = kinds.(t) in
        if sig_ = s then
          match k with
          | Krise ->
            assign src 0;
            assign dst 1
          | Kfall ->
            assign src 1;
            assign dst 0
          | Ktoggle | Ksilent -> ())
      edges;
    let propagate () =
      while not (Queue.is_empty queue) do
        let m = Queue.take queue in
        List.iter
          (fun (m', (sig_, k)) ->
            let flips = sig_ = s && k <> Ksilent in
            let expect = if flips then 1 - v.(m) else v.(m) in
            assign m' expect)
          adj.(m)
      done
    in
    propagate ();
    (* Components never pinned by a rise/fall (e.g. pure-toggle signals):
       anchor the lowest unassigned state at 0. *)
    for m = 0 to n - 1 do
      if v.(m) < 0 then begin
        assign m 0;
        propagate ()
      end
    done;
    (* Final verification of directed edges. *)
    Array.iter
      (fun (src, t, dst) ->
        let sig_, k = kinds.(t) in
        let fine =
          match (sig_ = s, k) with
          | true, Krise -> v.(src) = 0 && v.(dst) = 1
          | true, Kfall -> v.(src) = 1 && v.(dst) = 0
          | true, Ktoggle -> v.(src) = 1 - v.(dst)
          | true, Ksilent -> v.(src) = v.(dst)
          | false, _ -> v.(src) = v.(dst)
        in
        if not fine then
          fail "signal %s: inconsistent assignment across an edge"
            (Stg.signal_name stg s))
      edges
  done;
  (* Merge the ε-connected states before the graph is built, numbering
     classes by first member and keeping each edge at its first
     occurrence.  The assignment gave each silent edge's ends one
     code, so a class's code is any member's. *)
  let uf = Uf.create n in
  Array.iter
    (fun (src, t, dst) -> if snd kinds.(t) = Ksilent then Uf.union uf src dst)
    edges;
  let cls, nc = classes uf n in
  let codes = Array.make nc 0 in
  for m = 0 to n - 1 do
    let c = ref 0 in
    for s = 0 to ns - 1 do
      if values.(s).(m) = 1 then c := !c lor (1 lsl s)
    done;
    codes.(cls.(m)) <- !c
  done;
  let signals =
    Array.init ns (fun s ->
        {
          sname = Stg.signal_name stg s;
          non_input = Signal.non_input (Stg.kind stg s);
        })
  in
  let edges =
    List.filter_map
      (fun (src, t, dst) ->
        let sig_, k = kinds.(t) in
        let dir =
          match k with
          | Ksilent -> None
          | Krise -> Some R
          | Kfall -> Some F
          | Ktoggle -> Some (if values.(sig_).(src) = 0 then R else F)
        in
        Option.map
          (fun d -> { src = cls.(src); label = Ev (sig_, d); dst = cls.(dst) })
          dir)
      (Array.to_list edges)
  in
  Sg_records.make ~name:(Stg.name stg) ~signals ~codes
    ~edges:(first_occurrences ~n:nc edges) ~initial:cls.(0)

let of_stg ?max_states ?(backend = `Explicit) stg =
  let net = Stg.net stg in
  (* Both engines return field-for-field identical graphs (the symbolic
     builder replays the explicit numbering from its fixpoint and falls
     back outside the 1-safe encoding), so everything from here on is
     backend-oblivious and the digests must agree — tests enforce it. *)
  match backend with
  | `Explicit ->
    let g = Reach.explore ?max_states net in
    of_transition_edges stg ~n_states:(Reach.n_states g) (reach_edges g)
  | `Symbolic ->
    (* the derivation reads nothing but the state count and the edges,
       so the symbolic engine skips the rest of the [Reach.t]
       materialization and hands over its flat edge buffer *)
    let n, buf, n_edges = Symbolic.explore_edges ?max_states net in
    of_transition_edges stg ~n_states:n
      (Array.init n_edges (fun e -> (buf.(3 * e), buf.(3 * e + 1), buf.(3 * e + 2))))
