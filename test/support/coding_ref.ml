(* U3 and U4's coding verdicts as lint computed them before it read
   them off [Sg]: a second consistent state assignment, ε union-find and
   signature-keyed conflict count over [Reach.explore]'s graph.  The
   reference the test-suite compares [Prefix_rules.analyze]'s
   [s_sg_states], [s_usc], [s_csc] and [s_conflicts] against, verdict
   for verdict. *)

type edge_kind = Krise | Kfall | Ktoggle | Ksilent

exception Inconsistent_values

(* Everything [Sg.of_stg] + [Csc] decide about coding, recomputed from
   the explicit reachability graph with per-signal lists and queues
   instead of [Sg]'s one XOR pass.  Values are pinned by rise/fall seeds
   and flip-parity propagation over the (connected) graph, and a
   never-seeded signal is anchored at the lowest unassigned state, the
   initial marking.  Per-marking values, ε-classes, class codes and
   excitation signatures therefore coincide with [Sg]'s. *)
type coding = {
  cd_n_classes : int;
  cd_usc : bool;
  cd_csc : bool;
  cd_conflicts : int;
}

let exact_coding stg (g : Reach.t) =
  let n = Reach.n_states g in
  let ns = Stg.n_signals stg in
  if ns > 62 then None
  else
    try
      let kind_of t =
        match Stg.label stg t with
        | Stg.Dummy -> (-1, Ksilent)
        | Stg.Event e -> (
          ( e.Signal.signal,
            match e.Signal.dir with
            | Signal.Rise -> Krise
            | Signal.Fall -> Kfall
            | Signal.Toggle -> Ktoggle ))
      in
      let edge_info =
        Array.map
          (fun (src, t, dst) -> (src, dst, kind_of t))
          (Sg_records.reach_edges g)
      in
      let values = Array.make_matrix ns n (-1) in
      let adj = Array.make n [] in
      Array.iter
        (fun (src, dst, k) ->
          adj.(src) <- (dst, k) :: adj.(src);
          adj.(dst) <- (src, k) :: adj.(dst))
        edge_info;
      for s = 0 to ns - 1 do
        let v = values.(s) in
        let queue = Queue.create () in
        let assign m x =
          if v.(m) < 0 then begin
            v.(m) <- x;
            Queue.add m queue
          end
          else if v.(m) <> x then raise Inconsistent_values
        in
        Array.iter
          (fun (src, dst, (sig_, k)) ->
            if sig_ = s then
              match k with
              | Krise ->
                assign src 0;
                assign dst 1
              | Kfall ->
                assign src 1;
                assign dst 0
              | Ktoggle | Ksilent -> ())
          edge_info;
        let propagate () =
          while not (Queue.is_empty queue) do
            let m = Queue.take queue in
            List.iter
              (fun (m', (sig_, k)) ->
                let flips = sig_ = s && k <> Ksilent in
                assign m' (if flips then 1 - v.(m) else v.(m)))
              adj.(m)
          done
        in
        propagate ();
        for m = 0 to n - 1 do
          if v.(m) < 0 then begin
            assign m 0;
            propagate ()
          end
        done;
        Array.iter
          (fun (src, dst, (sig_, k)) ->
            let fine =
              match (sig_ = s, k) with
              | true, Krise -> v.(src) = 0 && v.(dst) = 1
              | true, Kfall -> v.(src) = 1 && v.(dst) = 0
              | true, Ktoggle -> v.(src) = 1 - v.(dst)
              | true, Ksilent -> v.(src) = v.(dst)
              | false, _ -> v.(src) = v.(dst)
            in
            if not fine then raise Inconsistent_values)
          edge_info
      done;
      (* ε-quotient: undirected union over silent edges, like
         [Sg_ref.quotient] with every signal kept *)
      let uf = Array.init n Fun.id in
      let rec find i = if uf.(i) = i then i else (uf.(i) <- find uf.(i); uf.(i)) in
      let union i j =
        let ri = find i and rj = find j in
        if ri <> rj then uf.(max ri rj) <- min ri rj
      in
      Array.iter
        (fun (src, dst, (_, k)) -> if k = Ksilent then union src dst)
        edge_info;
      let class_id = Array.make n (-1) in
      let n_classes = ref 0 in
      for m = 0 to n - 1 do
        let r = find m in
        if class_id.(r) < 0 then begin
          class_id.(r) <- !n_classes;
          incr n_classes
        end
      done;
      let cls m = class_id.(find m) in
      let nc = !n_classes in
      let codes = Array.make nc 0 in
      for m = 0 to n - 1 do
        let c = ref 0 in
        for s = 0 to ns - 1 do
          if values.(s).(m) = 1 then c := !c lor (1 lsl s)
        done;
        codes.(cls m) <- !c
      done;
      (* excitation per class: concrete signal edges of the projected
         non-silent edges (toggles resolved by the source value) *)
      let exc = Array.make nc [] in
      Array.iter
        (fun (src, _, (sig_, k)) ->
          let record is_rise =
            let c = cls src in
            if not (List.mem (sig_, is_rise) exc.(c)) then
              exc.(c) <- (sig_, is_rise) :: exc.(c)
          in
          match k with
          | Ksilent -> ()
          | Krise -> record true
          | Kfall -> record false
          | Ktoggle -> record (values.(sig_).(src) = 0))
        edge_info;
      let signature c =
        let buf = Buffer.create 16 in
        List.iter
          (fun (s, is_rise) ->
            if Signal.non_input (Stg.kind stg s) then
              Buffer.add_string buf
                (Printf.sprintf "%d%c;" s (if is_rise then '+' else '-')))
          (List.sort compare exc.(c));
        Buffer.contents buf
      in
      let by_code = Hashtbl.create nc in
      for c = 0 to nc - 1 do
        let cur =
          Option.value (Hashtbl.find_opt by_code codes.(c)) ~default:[]
        in
        Hashtbl.replace by_code codes.(c) (c :: cur)
      done;
      let usc = ref true and conflicts = ref 0 in
      Hashtbl.iter
        (fun _ members ->
          match members with
          | [] | [ _ ] -> ()
          | ms ->
            usc := false;
            let sigs = List.map signature ms in
            let rec pairs = function
              | [] -> ()
              | sm :: rest ->
                List.iter (fun sm' -> if sm <> sm' then incr conflicts) rest;
                pairs rest
            in
            pairs sigs)
        by_code;
      Some
        {
          cd_n_classes = nc;
          cd_usc = !usc;
          cd_csc = !conflicts = 0;
          cd_conflicts = !conflicts;
        }
    with Inconsistent_values -> None
