(* .g round-trip regression over the shipped benchmarks: parse → print →
   parse must reproduce the STG up to state-graph isomorphism, and the
   printer must be idempotent (printing the reparse gives the same
   text).  This pins `Gformat` against silent format drift — marking
   syntax, toggle instances, dummy sections — across every file the
   repo actually ships. *)

let data_dir = Filename.concat ".." "data"

let g_files () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare

let signal_table stg =
  List.init (Stg.n_signals stg) (fun s ->
      (Stg.signal_name stg s, Stg.kind stg s))
  |> List.sort compare

(* State-graph isomorphism by lock-step BFS from the initial states.
   Signals are matched by name (printing may reorder declarations), and
   successor edges by (signal, direction); concurrent duplicates of one
   label are disambiguated by destination code. *)
let isomorphic a b =
  Sg.n_states a = Sg.n_states b
  && Sg.n_edges a = Sg.n_edges b
  && Sg.n_signals a = Sg.n_signals b
  &&
  let map_sig =
    Array.init (Sg.n_signals a) (fun s ->
        Sg.find_signal b (Sg.signal_name a s))
  in
  let remap_code c =
    let r = ref 0 in
    for s = 0 to Sg.n_signals a - 1 do
      if c land (1 lsl s) <> 0 then r := !r lor (1 lsl map_sig.(s))
    done;
    !r
  in
  let partner = Array.make (Sg.n_states a) (-1) in
  let ok = ref true in
  let q = Queue.create () in
  let pair ma mb =
    if remap_code (Sg.code a ma) <> Sg.code b mb then ok := false
    else if partner.(ma) = -1 then begin
      partner.(ma) <- mb;
      Queue.add ma q
    end
    else if partner.(ma) <> mb then ok := false
  in
  pair (Sg.initial a) (Sg.initial b);
  while !ok && not (Queue.is_empty q) do
    let ma = Queue.pop q in
    let mb = partner.(ma) in
    let succ g m =
      let l = ref [] in
      Sg.iter_succ g m (fun e -> l := e :: !l);
      List.rev !l
    in
    let ea = succ a ma and eb = succ b mb in
    if List.length ea <> List.length eb then ok := false
    else
      List.iter
        (fun e ->
          let lbl = Sg.label_code map_sig.(Sg.edge_signal a e) (Sg.edge_dir a e) in
          let da = Sg.edge_dst a e in
          let target = remap_code (Sg.code a da) in
          match
            List.filter
              (fun e' -> Sg.edge_label b e' = lbl && Sg.code b (Sg.edge_dst b e') = target)
              eb
          with
          | [] -> ok := false
          | [ e' ] -> pair da (Sg.edge_dst b e')
          | cands -> (
            (* same label and code: keep an already-established pairing
               if one exists, otherwise any candidate is as good *)
            match List.find_opt (fun e' -> partner.(da) = Sg.edge_dst b e') cands with
            | Some e' -> pair da (Sg.edge_dst b e')
            | None -> pair da (Sg.edge_dst b (List.hd cands))))
        ea
  done;
  (* bijectivity: every state visited, no two mapped to one place *)
  !ok
  && Array.for_all (fun p -> p >= 0) partner
  && List.length (List.sort_uniq compare (Array.to_list partner))
     = Sg.n_states a

let test_roundtrip file () =
  let stg = Gformat.parse_file (Filename.concat data_dir file) in
  let printed = Gformat.to_string stg in
  let stg' = Gformat.parse_string ~name:(Stg.name stg) printed in
  if signal_table stg <> signal_table stg' then
    Alcotest.failf "%s: signal table changed across round trip" file;
  if Gformat.to_string stg' <> printed then
    Alcotest.failf "%s: printer is not idempotent" file;
  match (Sg.of_stg stg, Sg.of_stg stg') with
  | sg, sg' ->
    if not (isomorphic sg sg') then
      Alcotest.failf "%s: state graphs not isomorphic after round trip" file
  | exception Reach.Too_many_states _ ->
    (* graph too large to derive: fall back to marking-space counts *)
    let n g = Reach.n_states (Reach.explore (Stg.net g)) in
    if n stg <> n stg' then
      Alcotest.failf "%s: reachable marking counts differ" file

let () =
  let files = g_files () in
  if files = [] then failwith "test_roundtrip: no .g files under ../data";
  Alcotest.run "roundtrip"
    [
      ( "data",
        List.map
          (fun f -> Alcotest.test_case f `Quick (test_roundtrip f))
          files );
    ]
