(* Excitation masks against the references they replaced.  [Derive],
   [Support], [Csc] and [Region_minimize] decide on integer excitation
   masks and masked codes; [Derive_ref] and [Signature_ref] keep the
   per-state implied-value scans, the re-projecting support search and
   the string signatures they used before.  Every decision must be the
   same, so on every graph of every net below the two must agree on:

   - the on- and off-set of every non-input signal;
   - the reduced and the grown supports, on those sets as given and
     shuffled with duplicates;
   - every derived function (support, projected sets, cover) and the
     mismatches [Derive.check] reports, with no proposed supports and
     with the module supports synthesis proposes;
   - the CSC and orphan conflict pairs, and the CSC pair count;
   - the labeling [Region_minimize.minimize_extra] leaves, for every
     extra index.

   Nets: data/*.g, 50 pinned-seed random STGs, and the generated
   pulsers-5, mixed-3x3 and parallel_rings-5.  Per net the graphs are the
   complete graph, the final labeled graph and the expanded graph, plus,
   where the complete graph is small, a SAT labeling of it that was not
   normalized, so the minimizer has whole regions to shrink.  Each
   labeling is also checked with only its first k extras, for every k:
   a full labeling resolves every conflict, a partial one leaves
   conflicts that differ in the extras' excitation. *)

let data_dir = Filename.concat ".." "data"

let nets () =
  let files =
    Sys.readdir data_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.sort compare
  in
  let rand = Qseed.state () in
  List.map (fun f -> Gformat.parse_file (Filename.concat data_dir f)) files
  @ List.init 50 (fun _ -> Bench_gen.random ~rand)
  @ [
      Bench_gen.concurrent_pulsers ~branches:5;
      Bench_gen.mixed ~stages:3 ~branches:3;
      Bench_gen.parallel_rings ~rings:5;
    ]

(* The complete graph's size up to which an unnormalized labeling is
   solved for and checked (the global SAT call grows steeply past it),
   and the expanded graph's size up to which supports are grown from
   every single variable. *)
let small_complete = 80
let small_expanded = 1500

let unnormalized complete =
  if Sg.n_states complete > small_complete || Csc.csc_satisfied complete then None
  else
    match
      (Modular_sat.solve_pairs ~normalize:false
         ~resolve:(Csc.conflict_pairs complete) complete)
        .Modular_sat.outcome
    with
    | Modular_sat.Solved { module_sg; _ } -> Some module_sg
    | Modular_sat.Gave_up _ -> None

let fail_at net what =
  Alcotest.failf "%s: %s differs from the reference" net what

(* Labeled graphs seen with conflict pairs, and with orphan pairs: the
   comparison is vacuous unless both occur. *)
let with_conflicts = ref 0
let with_orphans = ref 0

let check_one net g =
  let pairs = Csc.conflict_pairs g and orphans = Csc.orphan_conflict_pairs g in
  if pairs <> Signature_ref.conflict_pairs g then fail_at net "conflict_pairs";
  if Csc.n_conflicts g <> List.length pairs then fail_at net "n_conflicts";
  if orphans <> Signature_ref.orphan_conflict_pairs g then
    fail_at net "orphan_conflict_pairs";
  if Sg.n_extras g > 0 && pairs <> [] then incr with_conflicts;
  if orphans <> [] then incr with_orphans;
  for index = 0 to Sg.n_extras g - 1 do
    let labels h = (Sg.extras h).(index).Sg.values in
    if
      labels (Region_minimize.minimize_extra g ~index)
      <> labels (Signature_ref.minimize_extra g ~index)
    then fail_at net (Printf.sprintf "minimize_extra ~index:%d" index)
  done

(* [g] (a labeling of [complete]) and each of its prefixes *)
let check_labeled net complete g =
  let extras = Sg.extras g in
  let prefix = ref complete in
  Array.iteri
    (fun k (x : Sg.extra) ->
      check_one (Printf.sprintf "%s, %d extras" net k) !prefix;
      prefix := Sg.add_extra !prefix ~name:x.Sg.xname ~values:x.Sg.values)
    extras;
  check_one net g

(* Every [Support] call below shares one scratch, as [Derive] does, so
   the calls also check that a pass sees nothing of the one before. *)
let check_expanded net (r : Mpart.result) =
  let ex = r.Mpart.expanded in
  let width = Sg.n_signals ex in
  let non_inputs = List.filter (Sg.non_input ex) (List.init width Fun.id) in
  let scratch = Support.scratch () and arr = Array.of_list in
  List.iter2
    (fun s (on_a, off_a) ->
      let what w = fail_at net (Sg.signal_name ex s ^ ": " ^ w) in
      let onset = Array.to_list on_a and offset = Array.to_list off_a in
      if (onset, offset) <> Derive_ref.on_off_sets ex ~signal:s then
        what "on/off sets";
      let shuffled l = List.rev l @ l in
      let onset' = shuffled onset and offset' = shuffled offset in
      let reduced = Derive_ref.reduce ~width ~onset ~offset in
      if Support.reduce scratch ~width ~onset:on_a ~offset:off_a <> reduced then
        what "reduce";
      if
        Support.reduce scratch ~width ~onset:(arr onset') ~offset:(arr offset')
        <> reduced
      then what "reduce (shuffled)";
      (* with a code in both sets no variable can be dropped *)
      let onset_x = offset @ onset in
      if
        offset <> []
        && Support.reduce scratch ~width ~onset:(arr onset_x) ~offset:off_a
           <> Derive_ref.reduce ~width ~onset:onset_x ~offset
      then what "reduce (overlapping)";
      if Sg.n_states ex <= small_expanded then
        List.iter
          (fun vars ->
            if
              Support.grow scratch ~width ~vars ~onset:on_a ~offset:off_a
              <> Derive_ref.grow ~width ~vars ~onset ~offset
              || Support.grow scratch ~width ~vars ~onset:(arr onset')
                   ~offset:(arr offset')
                 <> Derive_ref.grow ~width ~vars ~onset:onset' ~offset:offset'
            then what "grow")
          ([] :: List.map (fun v -> [ v ]) (List.init width Fun.id)))
    non_inputs
    (Derive.on_off_sets ex ~signals:non_inputs);
  let fields =
    List.map (fun (f : Derive.func) ->
        (f.signal, f.support, f.onset, f.offset, f.cover))
  in
  let fs = Derive.synthesize ex in
  if fields fs <> Derive_ref.synthesize ex then fail_at net "Derive.synthesize";
  (* the path synthesis takes: the module supports, grown where short *)
  let support_of = Derive_ref.module_supports r in
  let fs_modular = Derive.synthesize ~support_of ex in
  if fields fs_modular <> Derive_ref.synthesize ~support_of ex then
    fail_at net "Derive.synthesize ~support_of";
  if Derive.check fs_modular ex <> Derive_ref.check fs_modular ex then
    fail_at net "Derive.check (module supports)";
  (* every cover emptied: each on-state is a mismatch *)
  let broken =
    List.map
      (fun (f : Derive.func) ->
        { f with cover = Cover.empty ~width:f.cover.Cover.width })
      fs
  in
  List.iter
    (fun fs ->
      if Derive.check fs ex <> Derive_ref.check fs ex then
        fail_at net "Derive.check")
    [ fs; broken ]

let test_agree () =
  List.iter
    (fun stg ->
      let net = Stg.name stg in
      let r = Mpart.synthesize stg in
      let complete = r.Mpart.complete in
      check_one net complete;
      check_labeled net complete r.Mpart.final;
      Option.iter
        (check_labeled (net ^ " (unnormalized)") complete)
        (unnormalized complete);
      check_expanded net r)
    (nets ());
  Alcotest.(check bool) "labeled graphs with conflicts" true (!with_conflicts > 0);
  Alcotest.(check bool) "graphs with orphan pairs" true (!with_orphans > 0)

(* A graph that violates CSC has no functions: [Derive.synthesize] on
   the complete graph of a conflicted net names the first non-input
   signal, in id order, whose on- and off-set meet, and the smallest
   code they share. *)
let test_not_csc () =
  let complete =
    Sg.of_stg (Gformat.parse_file (Filename.concat data_dir "fifo.g"))
  in
  let expected =
    List.find_map
      (fun s ->
        if not (Sg.non_input complete s) then None
        else
          let onset, offset = Derive_ref.on_off_sets complete ~signal:s in
          List.find_opt (fun c -> List.mem c offset) onset
          |> Option.map
               (Printf.sprintf "signal %s: code %d implies both values"
                  (Sg.signal_name complete s)))
      (List.init (Sg.n_signals complete) Fun.id)
  in
  Alcotest.(check bool) "fifo violates CSC" true (Option.is_some expected);
  Alcotest.(check (option string))
    "Not_csc message" expected
    (match Derive.synthesize complete with
    | _ -> None
    | exception Derive.Not_csc msg -> Some msg)

let () =
  Alcotest.run "masks"
    [
      ( "reference",
        [
          Alcotest.test_case "masks = references" `Quick test_agree;
          Alcotest.test_case "Not_csc names the smallest shared code" `Quick
            test_not_csc;
        ] );
    ]
