(* Tests for Fourval, Sg (derivation, quotient), Csc, Region_minimize and
   Sg_expand. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the canonical conflict example: r+ a+ a- r- *)
let pulse_stg () =
  Stg_builder.(
    compile ~name:"pulse" ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))

let pulse_sg () = Sg.of_stg (pulse_stg ())

(* ---------------- Fourval ---------------- *)

let test_fourval_binary () =
  check "V0" false (Fourval.binary Fourval.V0);
  check "Up" false (Fourval.binary Fourval.Up);
  check "V1" true (Fourval.binary Fourval.V1);
  check "Dn" true (Fourval.binary Fourval.Dn)

let test_fourval_edges () =
  let legal =
    [
      (Fourval.V0, Fourval.V0); (Fourval.V1, Fourval.V1);
      (Fourval.Up, Fourval.Up); (Fourval.Dn, Fourval.Dn);
      (Fourval.V0, Fourval.Up); (Fourval.Up, Fourval.V1);
      (Fourval.V1, Fourval.Dn); (Fourval.Dn, Fourval.V0);
    ]
  in
  let all = [ Fourval.V0; Fourval.V1; Fourval.Up; Fourval.Dn ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check
            (Printf.sprintf "%s->%s" (Fourval.to_string a) (Fourval.to_string b))
            (List.mem (a, b) legal)
            (Fourval.edge_ok a b))
        all)
    all

let test_fourval_merge () =
  let module F = Fourval in
  check "single" true (F.merge [ F.V0 ] = Some F.V0);
  check "0 and Up" true (F.merge [ F.V0; F.Up ] = Some F.Up);
  check "chain 0 Up 1" true (F.merge [ F.V0; F.Up; F.V1 ] = Some F.Up);
  check "1 Dn 0" true (F.merge [ F.V1; F.Dn; F.V0 ] = Some F.Dn);
  check "0 and 1 alone" true (F.merge [ F.V0; F.V1 ] = None);
  check "Up and Dn" true (F.merge [ F.Up; F.Dn ] = None);
  check "empty" true (F.merge [] = None)

let test_fourval_bits () =
  List.iter
    (fun v ->
      let a, b = Fourval.to_bits v in
      check "roundtrip" true (Fourval.of_bits ~a ~b = v))
    [ Fourval.V0; Fourval.V1; Fourval.Up; Fourval.Dn ]

(* ---------------- Derivation ---------------- *)

let test_of_stg_codes () =
  let sg = pulse_sg () in
  check_int "states" 4 (Sg.n_states sg);
  check_int "edges" 4 (Sg.n_edges sg);
  check_int "initial code" 0 (Sg.code sg (Sg.initial sg));
  (* consistency along every edge is checked by the constructor; spot
     check that both 10-coded states exist *)
  let codes = List.init (Sg.n_states sg) (Sg.code sg) in
  check_int "two states with code 01(r=1,a=0)" 2
    (List.length (List.filter (( = ) 1) codes))

let test_of_stg_inconsistent () =
  (* r+ ; r+ in sequence is inconsistent *)
  let open Stg_builder in
  let stg =
    compile ~name:"bad" ~inputs:[ "r" ] ~outputs:[]
      (seq [ plus "r"; plus "r"; minus "r"; minus "r" ])
  in
  check "raises" true
    (try
       ignore (Sg.of_stg stg);
       false
     with Sg.Inconsistent _ -> true)

let test_of_stg_dummy_contraction () =
  let open Stg_builder in
  (* nop compiles to a dummy transition that must disappear *)
  let stg =
    compile ~name:"d" ~inputs:[ "r" ] ~outputs:[]
      (seq [ plus "r"; nop; minus "r" ])
  in
  let sg = Sg.of_stg stg in
  check_int "dummy merged away" 2 (Sg.n_states sg)

let test_of_stg_toggle_resolution () =
  let src =
    ".model tog\n.inputs a\n.outputs b\n.graph\na~ b~\nb~ a~/2\na~/2 b~/2\n\
     b~/2 a~\n.marking { <b~/2,a~> }\n.end\n"
  in
  let sg = Sg.of_stg (Gformat.parse_string src) in
  (* toggles resolve to concrete rise/fall labels *)
  check_int "four states" 4 (Sg.n_states sg)

let test_implied_value () =
  let sg = pulse_sg () in
  let a = Sg.find_signal sg "a" in
  (* in the state after r+, a is excited to rise: implied 1 *)
  let m1 =
    List.find
      (fun m -> Sg.code sg m = 1 && List.mem (a, Sg.R) (Sg.excited_events sg m))
      (List.init (Sg.n_states sg) Fun.id)
  in
  check "implied 1" true (Sg.implied_value sg m1 a);
  (* in the state after a-, a is stable 0: implied 0 *)
  let m3 =
    List.find
      (fun m ->
        Sg.code sg m = 1 && not (List.mem (a, Sg.R) (Sg.excited_events sg m)))
      (List.init (Sg.n_states sg) Fun.id)
  in
  check "implied 0" false (Sg.implied_value sg m3 a)

(* ---------------- Σ golden ---------------- *)

(* [Sg.digest] of the complete state graph under each reachability
   engine, one "name explicit symbolic" line of sg_golden.txt per net:
   every data/*.g net plus seven generated ones.  [Sg.of_stg]'s own
   engine choice must match the explicit column too.  The digest covers
   codes, the ε-merged state numbering and the edge order, so a rewrite
   of the derivation must keep every line; the netlist golden only pins
   what synthesis makes of Σ. *)
let golden_nets () =
  let data_dir = Filename.concat ".." "data" in
  let files =
    Sys.readdir data_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.sort compare
  in
  List.map
    (fun f ->
      ( Filename.chop_suffix f ".g",
        fun () -> Gformat.parse_file (Filename.concat data_dir f) ))
    files
  @ [
      ("parallel_rings-5", fun () -> Bench_gen.parallel_rings ~rings:5);
      ("parallel_rings-6", fun () -> Bench_gen.parallel_rings ~rings:6);
      ("pulsers-4", fun () -> Bench_gen.concurrent_pulsers ~branches:4);
      ("pulsers-5", fun () -> Bench_gen.concurrent_pulsers ~branches:5);
      ("mixed-3x3", fun () -> Bench_gen.mixed ~stages:3 ~branches:3);
      ("lock_ring-5", fun () -> Bench_gen.lock_ring ~signals:5);
      ("pipeline-4", fun () -> Bench_gen.pipeline ~stages:4);
    ]

let test_sg_golden () =
  let golden =
    In_channel.with_open_bin "sg_golden.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | [ n; e; s ] -> (n, (e, s))
           | _ -> Alcotest.failf "malformed golden line %S" l)
  in
  let nets = golden_nets () in
  Alcotest.(check (list string))
    "one net per golden entry" (List.map fst golden) (List.map fst nets);
  List.iter
    (fun (n, build) ->
      let stg = build () in
      let want_e, want_s = List.assoc n golden in
      Alcotest.(check string)
        (n ^ ": explicit") want_e
        (Sg.digest (Sg.of_stg ~backend:`Explicit stg));
      Alcotest.(check string)
        (n ^ ": engine choice") want_e (Sg.digest (Sg.of_stg stg));
      Alcotest.(check string)
        (n ^ ": symbolic") want_s
        (Sg.digest (Sg.of_stg ~backend:`Symbolic stg)))
    nets

(* ---------------- Edge storage ---------------- *)

let parsed stg = Gformat.parse_string (Gformat.to_string stg)

(* A graph keeps its edges as three int arrays plus a CSR index per
   direction: about five words per edge and three per state, with no
   record, label or list cell per edge. *)
let test_edges_flat () =
  let words_per_edge name sg =
    let w = float (Obj.reachable_words (Obj.repr sg)) in
    let per_edge = w /. float (Sg.n_edges sg) in
    Printf.printf "%s: %.2f words per edge\n" name per_edge;
    if per_edge > 6.0 then
      Alcotest.failf "%s: %.2f words per edge (%d states, %d edges)" name per_edge
        (Sg.n_states sg) (Sg.n_edges sg)
  in
  words_per_edge "parsed parallel_rings-6 sigma"
    (Sg.of_stg (parsed (Bench_gen.parallel_rings ~rings:6)));
  let pulsers = parsed (Bench_gen.concurrent_pulsers ~branches:5) in
  words_per_edge "parsed pulsers-5 sigma" (Sg.of_stg pulsers);
  words_per_edge "pulsers-5 expanded" (Mpart.synthesize pulsers).Mpart.expanded

(* The expansion allocates little beyond the graph it returns: no
   tuple, pair or closure per re-routed edge.  Words are
   [Gc.allocated_bytes] around the call, after a minor collection, per
   expanded edge of parsed pulsers-5 (6.06 when this bound was set; the
   graph itself keeps about 5.7). *)
let test_expand_allocation () =
  let r = Mpart.synthesize (parsed (Bench_gen.concurrent_pulsers ~branches:5)) in
  let words () =
    Gc.minor ();
    Gc.allocated_bytes () /. float (Sys.word_size / 8)
  in
  let before = words () in
  let expanded = Sg_expand.expand r.Mpart.final in
  let per_edge = (words () -. before) /. float (Sg.n_edges expanded) in
  Printf.printf "pulsers-5 expansion: %.2f words allocated per edge\n" per_edge;
  if per_edge > 6.5 then
    Alcotest.failf "expansion allocated %.2f words per edge (%d edges)" per_edge
      (Sg.n_edges expanded)

(* Successor and predecessor iteration against the edge arrays: the
   edges out of (into) each state are exactly the edges whose source
   (target) it is, in edge order, and [out_degree] and the [exists_]
   forms agree with them. *)
let check_adjacency name sg =
  let n = Sg.n_states sg in
  let want_succ = Array.make n [] and want_pred = Array.make n [] in
  for e = Sg.n_edges sg - 1 downto 0 do
    let a = Sg.edge_src sg e and b = Sg.edge_dst sg e in
    want_succ.(a) <- e :: want_succ.(a);
    want_pred.(b) <- e :: want_pred.(b)
  done;
  let collect iter m =
    let l = ref [] in
    iter sg m (fun e -> l := e :: !l);
    List.rev !l
  in
  for m = 0 to n - 1 do
    let fail what = Alcotest.failf "%s: %s of state %d" name what m in
    if collect Sg.iter_succ m <> want_succ.(m) then fail "successors";
    if collect Sg.iter_pred m <> want_pred.(m) then fail "predecessors";
    if Sg.out_degree sg m <> List.length want_succ.(m) then fail "out-degree";
    let last l = match List.rev l with [] -> -1 | e :: _ -> e in
    if Sg.exists_succ sg m (fun e -> e = last want_succ.(m)) <> (want_succ.(m) <> [])
    then fail "exists_succ";
    if Sg.exists_pred sg m (fun e -> e = last want_pred.(m)) <> (want_pred.(m) <> [])
    then fail "exists_pred"
  done

let test_adjacency () =
  List.iter (fun (n, build) -> check_adjacency n (Sg.of_stg (build ()))) (golden_nets ());
  let data_dir = Filename.concat ".." "data" in
  let nets =
    (Sys.readdir data_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.sort compare
    |> List.map (fun f -> Gformat.parse_file (Filename.concat data_dir f)))
    @ [ Bench_gen.concurrent_pulsers ~branches:5; Bench_gen.mixed ~stages:3 ~branches:3 ]
  in
  List.iter
    (fun stg ->
      let name = Stg.name stg in
      let r = Mpart.synthesize stg in
      check_adjacency (name ^ " final") r.Mpart.final;
      check_adjacency (name ^ " expanded") r.Mpart.expanded;
      let sigma = r.Mpart.complete in
      for o = 0 to Sg.n_signals sigma - 1 do
        if Sg.non_input sigma o then
          check_adjacency
            (Printf.sprintf "%s module %s" name (Sg.signal_name sigma o))
            (Input_derivation.determine sigma ~output:o).Input_derivation.module_sg
      done)
    nets

(* ---------------- Σ against the per-signal reference ---------------- *)

(* [Sg.of_stg] against [Sg_ref], the builder that solved the assignment
   one signal at a time: the same digest under both engines, or the same
   [Inconsistent] message, byte for byte. *)
let sigma_outcome build =
  match build () with
  | sg -> Ok (Sg.digest sg)
  | exception Sg.Inconsistent msg -> Error msg

let check_sigma_ref name stg =
  List.iter
    (fun (backend, tag) ->
      Alcotest.(check (result string string))
        (Printf.sprintf "%s: %s = reference" name tag)
        (sigma_outcome (fun () -> Sg_ref.of_stg ~backend stg))
        (sigma_outcome (fun () -> Sg.of_stg ~backend stg)))
    [ (`Explicit, "explicit"); (`Symbolic, "symbolic") ]

(* Nets with no consistent state assignment: a signal rising twice in
   a row, the net `mpsyn` rejects with exit 3, and one signal pulsed on
   two concurrent branches. *)
let inconsistent_nets () =
  let open Stg_builder in
  [
    ( "rise twice",
      compile ~name:"bad" ~inputs:[ "r" ] ~outputs:[]
        (seq [ plus "r"; plus "r"; minus "r"; minus "r" ]) );
    ( "incons",
      Gformat.parse_string
        ".model incons\n.inputs r\n.outputs x\n.graph\nr+ x+\nx+ r+/2\n\
         r+/2 x-\nx- r-\nr- r-/2\nr-/2 r+\n.marking { <r-/2,r+> }\n.end\n" );
    ( "concurrent pulses",
      compile ~name:"pulses" ~inputs:[ "a"; "b" ] ~outputs:[]
        (seq [ plus "a"; par [ seq [ plus "b"; minus "b" ]; seq [ plus "b"; minus "b" ] ]; minus "a" ]) );
  ]

let test_sigma_reference () =
  List.iter (fun (name, build) -> check_sigma_ref name (build ())) (golden_nets ());
  check_sigma_ref "parallel_rings-7" (Bench_gen.parallel_rings ~rings:7);
  List.iter
    (fun (name, stg) ->
      check (name ^ ": rejected") true
        (Result.is_error (sigma_outcome (fun () -> Sg_ref.of_stg stg)));
      check_sigma_ref name stg)
    (inconsistent_nets ());
  let rand = Qseed.state () in
  for i = 1 to 50 * Qseed.soak do
    check_sigma_ref (Printf.sprintf "random %d" i) (Bench_gen.random ~rand)
  done

(* ---------------- CSC ---------------- *)

let test_csc_conflict () =
  let sg = pulse_sg () in
  check_int "one class" 1 (List.length (Csc.code_classes sg));
  check_int "one conflict" 1 (Csc.n_conflicts sg);
  check_int "max usc" 2 (Csc.max_usc sg);
  check_int "lower bound" 1 (Csc.lower_bound sg);
  check "csc violated" false (Csc.csc_satisfied sg);
  check "usc violated" false (Csc.usc_satisfied sg)

let test_csc_clean () =
  let open Stg_builder in
  let stg =
    compile ~name:"hs" ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "r"; minus "a" ])
  in
  let sg = Sg.of_stg stg in
  check "satisfied" true (Csc.csc_satisfied sg);
  check "usc" true (Csc.usc_satisfied sg);
  check_int "lb" 0 (Csc.lower_bound sg)

let test_output_conflicts () =
  let sg = pulse_sg () in
  let a = Sg.find_signal sg "a" in
  check_int "a has the conflict" 1
    (List.length (Csc.output_conflict_pairs sg ~output:a))

(* ---------------- Extras ---------------- *)

(* the canonical resolution: n rises between a+ and a-, falls after r- *)
let resolved_pulse () =
  let sg = pulse_sg () in
  (* states in firing order: 0:00 --r+-> 1:01(r) --a+-> 2:11 --a-> 3:01 --r-> 0 *)
  (* identify states by walking edges from initial *)
  let step m =
    if Sg.out_degree sg m <> 1 then Alcotest.fail "det";
    let d = ref (-1) in
    Sg.iter_succ sg m (fun e -> d := Sg.edge_dst sg e);
    !d
  in
  let m0 = Sg.initial sg in
  let m1 = step m0 in
  let m2 = step m1 in
  let m3 = step m2 in
  let values = Array.make 4 Fourval.V0 in
  values.(m0) <- Fourval.Dn;
  values.(m1) <- Fourval.V0;
  values.(m2) <- Fourval.Up;
  values.(m3) <- Fourval.V1;
  (Sg.add_extra sg ~name:"n" ~values, (m0, m1, m2, m3))

let test_add_extra () =
  let sg, _ = resolved_pulse () in
  check_int "one extra" 1 (Sg.n_extras sg);
  check "resolves csc" true (Csc.csc_satisfied sg);
  check_int "full width" 3 (Sg.full_width sg)

let test_add_extra_invalid () =
  let sg = pulse_sg () in
  let values = Array.make 4 Fourval.V0 in
  values.(Sg.initial sg) <- Fourval.V1;
  (* a 1 next to 0s violates edge consistency *)
  check "raises" true
    (try
       ignore (Sg.add_extra sg ~name:"n" ~values);
       false
     with Sg.Inconsistent _ -> true)

let test_set_extra_values () =
  let sg, (m0, m1, m2, m3) = resolved_pulse () in
  let values = Array.make 4 Fourval.V0 in
  values.(m1) <- Fourval.Up;
  values.(m2) <- Fourval.V1;
  values.(m3) <- Fourval.Dn;
  values.(m0) <- Fourval.V0;
  let sg' = Sg.set_extra_values sg ~index:0 ~values in
  check "still resolves" true (Csc.csc_satisfied sg')

(* ---------------- Quotient ---------------- *)

let test_quotient_hide_all_outputs () =
  let sg = pulse_sg () in
  let a = Sg.find_signal sg "a" in
  match Sg_ref.quotient sg ~keep_signal:(fun s -> s <> a) ~keep_extra:(fun _ -> true) with
  | None -> Alcotest.fail "merge should succeed"
  | Some (q, cover) ->
    check_int "two states" 2 (Sg.n_states q);
    check_int "one signal" 1 (Sg.n_signals q);
    check_int "cover size" 4 (Array.length cover);
    Array.iter (fun c -> check "cover in range" true (c < 2)) cover

let test_quotient_preserves_extra () =
  (* a constant extra merges trivially under any hiding *)
  let sg = pulse_sg () in
  let sg =
    Sg.add_extra sg ~name:"n" ~values:(Array.make 4 Fourval.V0)
  in
  let r = Sg.find_signal sg "r" in
  (match
     Sg_ref.quotient sg ~keep_signal:(fun s -> s <> r) ~keep_extra:(fun _ -> true)
   with
  | None -> Alcotest.fail "constant extra must merge"
  | Some (q, _) -> check_int "extra survives" 1 (Sg.n_extras q));
  (* whereas an extra that toggles across the hidden region is rejected:
     n falls inside r's return-to-zero (the resolved pulse assignment) *)
  let sg', _ = resolved_pulse () in
  let r' = Sg.find_signal sg' "r" in
  check "toggling extra rejected" true
    (Sg_ref.quotient sg'
       ~keep_signal:(fun s -> s <> r')
       ~keep_extra:(fun _ -> true)
    = None)

let test_quotient_rejects_updn_merge () =
  (* extra rises and falls inside the hidden region: must be rejected *)
  let open Stg_builder in
  let stg =
    compile ~name:"q" ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "a"; minus "r" ])
  in
  let sg = Sg.of_stg stg in
  let step m =
    if Sg.out_degree sg m <> 1 then Alcotest.fail "det";
    let d = ref (-1) in
    Sg.iter_succ sg m (fun e -> d := Sg.edge_dst sg e);
    !d
  in
  let m0 = Sg.initial sg in
  let m1 = step m0 in
  let m2 = step m1 in
  let m3 = step m2 in
  let values = Array.make 4 Fourval.V0 in
  values.(m1) <- Fourval.Up;
  values.(m2) <- Fourval.V1;
  values.(m3) <- Fourval.Dn;
  let sg = Sg.add_extra sg ~name:"n" ~values in
  let a = Sg.find_signal sg "a" in
  (* hiding a merges m1(Up) m2(V1) m3(Dn): Up and Dn in one class *)
  check "rejected" true
    (Sg_ref.quotient sg ~keep_signal:(fun s -> s <> a) ~keep_extra:(fun _ -> true)
    = None)

let test_quotient_keep_extra_filter () =
  let sg, _ = resolved_pulse () in
  match Sg_ref.quotient sg ~keep_signal:(fun _ -> true) ~keep_extra:(fun _ -> false) with
  | None -> Alcotest.fail "dropping extras cannot fail"
  | Some (q, _) -> check_int "extra dropped" 0 (Sg.n_extras q)

(* ---------------- Expansion ---------------- *)

let test_expand_pulse () =
  let sg, _ = resolved_pulse () in
  let ex = Sg_expand.expand sg in
  check_int "six states" 6 (Sg.n_states ex);
  check_int "three signals" 3 (Sg.n_signals ex);
  check_int "no extras left" 0 (Sg.n_extras ex);
  check "expanded satisfies CSC" true (Csc.csc_satisfied ex);
  (* the new signal's transitions appear exactly twice (n+ and n-) *)
  let n = Sg.find_signal ex "n" in
  let n_edges =
    List.init (Sg.n_edges ex) Fun.id |> List.filter (fun e -> Sg.edge_signal ex e = n)
  in
  check_int "one rise one fall" 2 (List.length n_edges)

let test_expand_no_extras () =
  let sg = pulse_sg () in
  check "identity" true (Sg_expand.expand sg == sg);
  check "expand_one raises" true
    (try
       ignore (Expand_ref.expand_one sg);
       false
     with Invalid_argument _ -> true)

let test_expand_concurrent () =
  (* an extra that is Up across every state of a diamond: expansion must
     split each state and duplicate every edge into the commuting pair
     (Figure 3's Up->Up case, semi-modularity) *)
  let open Stg_builder in
  let stg =
    compile ~name:"dia" ~inputs:[ "x"; "y" ] ~outputs:[]
      (par [ seq [ plus "x"; minus "x" ]; seq [ plus "y"; minus "y" ] ])
  in
  let sg = Sg.of_stg stg in
  let values = Array.make (Sg.n_states sg) Fourval.Up in
  let sg = Sg.add_extra sg ~name:"n" ~values in
  let ex = Sg_expand.expand sg in
  check_int "doubled states" (2 * Sg.n_states sg) (Sg.n_states ex);
  (* each original edge appears twice (A- and B-halves) plus one n+ per
     original state *)
  check_int "edge count"
    ((2 * Sg.n_edges sg) + Sg.n_states sg)
    (Sg.n_edges ex)

let test_expand_constant_extra () =
  (* zero-conflict edge case: an extra that never switches expands to a
     new signal with no transitions — the graph shape is untouched *)
  let open Stg_builder in
  let stg =
    compile ~name:"hs" ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "r"; minus "a" ])
  in
  let sg = Sg.of_stg stg in
  let sg =
    Sg.add_extra sg ~name:"n" ~values:(Array.make (Sg.n_states sg) Fourval.V0)
  in
  let ex = Sg_expand.expand sg in
  check_int "states unchanged" (Sg.n_states sg) (Sg.n_states ex);
  check_int "edges unchanged" (Sg.n_edges sg) (Sg.n_edges ex);
  check_int "signal added" (Sg.n_signals sg + 1) (Sg.n_signals ex);
  check "still clean" true (Csc.csc_satisfied ex)

let test_expand_serializes_half_edges () =
  (* single-output edge case, (Up,V1) crossing: the a- exit of the Up
     state is only reachable from the bit-1 half, so expansion
     serializes n+ before it — the 0-half's sole successor is n+ *)
  let sg, _ = resolved_pulse () in
  let ex = Sg_expand.expand sg in
  check "semi-modular" true (Persistency.is_semi_modular ex);
  let n = Sg.find_signal ex "n" in
  let n_rise_srcs =
    List.init (Sg.n_edges ex) Fun.id
    |> List.filter_map (fun e ->
           if Sg.edge_label ex e = Sg.label_code n Sg.R then Some (Sg.edge_src ex e)
           else None)
  in
  check_int "single rise" 1 (List.length n_rise_srcs);
  check_int "rise is serialized" 1 (Sg.out_degree ex (List.hd n_rise_srcs))

(* ---------------- Region minimization ---------------- *)

let test_region_minimize_preserves_csc () =
  let sg, (m0, m1, m2, m3) = resolved_pulse () in
  ignore (m0, m1, m2, m3);
  check "resolved before" true (Csc.csc_satisfied sg);
  let sg' = Region_minimize.minimize sg in
  check "resolved after" true (Csc.csc_satisfied sg');
  (* minimization never grows the excitation region *)
  let excited g =
    Array.fold_left
      (fun acc (x : Sg.extra) ->
        acc
        + Array.fold_left
            (fun a v -> if Fourval.excited v then a + 1 else a)
            0 x.Sg.values)
      0 (Sg.extras g)
  in
  check "region not larger" true (excited sg' <= excited sg)

let test_region_minimize_shrinks_expansion () =
  (* propagation-style assignment: a whole class valued Up *)
  let open Stg_builder in
  let stg =
    compile ~name:"big" ~inputs:[ "r" ] ~outputs:[ "x"; "y" ]
      (seq
         [
           plus "r";
           par [ seq [ plus "x"; minus "x" ]; seq [ plus "y"; minus "y" ] ];
           minus "r";
         ])
  in
  let sg = Sg.of_stg stg in
  (* assign Up to every state with r=1, V0 elsewhere — legal, wide *)
  let r = Sg.find_signal sg "r" in
  let wide =
    Array.init (Sg.n_states sg) (fun m ->
        if Sg.bit sg m r then Fourval.Up else Fourval.V0)
  in
  (* Up -> V0 across r- edge is legal (Dn needed for rise-fall cycle, so
     use a proper cycle: V0 before r+, Up while r, then it must fall...
     a signal that rises and never falls is inconsistent around the loop
     only if it reaches stable 1; staying Up->V0 is the legal "aborted
     rise" pattern used by lazy transitions; edge (Up,V0) is illegal
     though, so this assignment must be rejected: *)
  (try
     ignore (Sg.add_extra sg ~name:"n" ~values:wide);
     Alcotest.fail "expected rejection"
   with Sg.Inconsistent _ -> ());
  check "rejected wide illegal region" true true

(* ---------------- one-pass expansion and early-exit checks ---------------- *)

(* [Sg_expand.expand] builds every extra in one pass; folding
   [Expand_ref.expand_one] is the step-by-step reference it must
   reproduce state for state and edge for edge.  The graphs: each data/*.g complete
   graph and 50 fuzzed ones, carrying the first k state signals inserted
   by modular SAT (through [Mpart.synthesize]) and by [Csc_direct], for
   every k, plus a cube of three concurrent pulses with four extras
   excited together. *)

let data_dir = Filename.concat ".." "data"

let g_files () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare

let rec iterated_expand sg =
  if Sg.n_extras sg = 0 then sg else iterated_expand (Expand_ref.expand_one sg)

let with_prefixes g (xs : Sg.extra array) =
  List.init (Array.length xs) (fun k ->
      Array.fold_left
        (fun acc (x : Sg.extra) ->
          Sg.add_extra acc ~name:x.Sg.xname ~values:x.Sg.values)
        g (Array.sub xs 0 (k + 1)))

let extra_carrying stg =
  match Sg.of_stg stg with
  | exception _ -> [] (* inconsistent or oversized random STG *)
  | g ->
    let modular =
      match (Mpart.synthesize stg).Mpart.final with
      | final -> Sg.extras final
      | exception _ -> [||]
    in
    let direct =
      match
        (Csc_direct.solve ~backtrack_limit:2_000 ~time_limit:1.0 g)
          .Csc_direct.outcome
      with
      | Csc_direct.Solved solved -> Sg.extras solved
      | Csc_direct.Gave_up _ -> [||]
    in
    (g :: with_prefixes g modular) @ with_prefixes g direct

let data_graphs =
  lazy
    (List.concat_map
       (fun f -> extra_carrying (Gformat.parse_file (Filename.concat data_dir f)))
       (g_files ()))

let fuzz_graphs =
  lazy
    (let rand = Qseed.state () in
     List.concat
       (List.init 50 (fun _ -> extra_carrying (Bench_gen.random ~rand))))

let concurrent_graph () =
  let open Stg_builder in
  let pulse x = seq [ plus x; minus x ] in
  let stg =
    compile ~name:"cube" ~inputs:[ "x"; "y" ] ~outputs:[ "z" ]
      (par [ pulse "x"; pulse "y"; pulse "z" ])
  in
  let sg = Sg.of_stg stg in
  List.fold_left
    (fun acc (name, v) ->
      Sg.add_extra acc ~name ~values:(Array.make (Sg.n_states sg) v))
    sg
    [ ("n0", Fourval.Up); ("n1", Fourval.V1); ("n2", Fourval.Dn); ("n3", Fourval.Up) ]

let check_one_pass graphs =
  let with_extras = List.filter (fun g -> Sg.n_extras g > 0) graphs in
  check "some graphs carry extras" true (with_extras <> []);
  List.iter
    (fun g ->
      Alcotest.(check string)
        (Printf.sprintf "%s with %d extras" (Sg.name g) (Sg.n_extras g))
        (Sg.digest (iterated_expand g))
        (Sg.digest (Sg_expand.expand g)))
    with_extras

let test_one_pass_data () = check_one_pass (Lazy.force data_graphs)
let test_one_pass_fuzz () = check_one_pass (Lazy.force fuzz_graphs)

let test_one_pass_concurrent () =
  let g = concurrent_graph () in
  let ex = Sg_expand.expand g in
  (* three excited extras split each of the 8 states into 8 copies *)
  check_int "states" (8 * Sg.n_states g) (Sg.n_states ex);
  check_one_pass [ g ]

(* [csc_satisfied] and [is_semi_modular] stop at the first violation;
   they must agree with the full lists on every graph, before and after
   expansion, and both answers must occur. *)
let test_early_exit_agrees () =
  let graphs =
    concurrent_graph ()
    :: (Lazy.force data_graphs @ Lazy.force fuzz_graphs)
  in
  let seen = Hashtbl.create 4 in
  let agree what g fast slow =
    Hashtbl.replace seen (what, fast) ();
    if fast <> slow then
      Alcotest.failf "%s on %s (%d extras): early exit says %b" what
        (Sg.name g) (Sg.n_extras g) fast
  in
  List.iter
    (fun g0 ->
      List.iter
        (fun g ->
          agree "csc" g (Csc.csc_satisfied g) (Csc.conflict_pairs g = []);
          agree "semi-modular" g
            (Persistency.is_semi_modular g)
            (Persistency.violations g = []))
        [ g0; Sg_expand.expand g0 ])
    graphs;
  List.iter
    (fun key ->
      check
        (Printf.sprintf "%s = %b occurs" (fst key) (snd key))
        true (Hashtbl.mem seen key))
    [ ("csc", true); ("csc", false); ("semi-modular", true);
      ("semi-modular", false) ]

(* The labelings the implementation stage judges.  Every output's
   module solution, propagated through its cover onto the complete
   graph: one module at a time, as bench/e2e's replay lifts them, and
   all modules together, as the insertion leaves them for
   minimization.  Then the minimize-then-check sequence over the
   latter: every candidate [Region_minimize.minimize_extra] proposes
   and every labeling it keeps.  The sequence keeps a candidate by the
   checks on its materialized expansion, so that a wrong folded verdict
   cannot steer it onto other (and larger) labelings. *)
let lifted_labelings stg =
  match Sg.of_stg stg with
  | exception _ -> [] (* inconsistent or oversized random STG *)
  | complete ->
    let solution o =
      let inp = Input_derivation.determine complete ~output:o in
      let msg = inp.Input_derivation.module_sg in
      let output = Sg.find_signal msg (Sg.signal_name complete o) in
      if Csc.n_output_conflicts msg ~output = 0 then None
      else
        let baseline = Sg_expand.n_violations msg in
        match
          (Modular_sat.solve ~deadline:(Deadline.of_limit (Some 1.0))
             ~accept:(fun g -> Sg_expand.n_violations g <= baseline)
             ~output msg)
            .Modular_sat.outcome
        with
        | Modular_sat.Solved { new_extras; _ } ->
          Some (o, inp.Input_derivation.cover, new_extras)
        | Modular_sat.Gave_up _ -> None
    in
    let solutions =
      List.filter_map solution
        (List.filter (Sg.non_input complete)
           (List.init (Sg.n_signals complete) Fun.id))
    in
    let lift g (o, cover, extras) =
      fst
        (Array.fold_left
           (fun (g, i) (x : Sg.extra) ->
             ( Propagation.propagate g ~cover
                 ~name:(Printf.sprintf "n%d_%d" o i)
                 ~values:x.Sg.values,
               i + 1 ))
           (g, 0) extras)
    in
    let lifted sol = try [ lift complete sol ] with Sg.Inconsistent _ -> [] in
    let sequence =
      match List.fold_left lift complete solutions with
      | exception Sg.Inconsistent _ -> []
      | current ->
        let acc = ref current and seen = ref [ current ] in
        for index = 0 to Sg.n_extras current - 1 do
          let candidate = Region_minimize.minimize_extra !acc ~index in
          seen := candidate :: !seen;
          let e = Sg_expand.expand candidate in
          if Csc.csc_satisfied e && Persistency.is_semi_modular e then
            acc := candidate
        done;
        List.rev !seen
    in
    List.concat_map lifted solutions @ sequence

let parsed stg =
  Gformat.parse_string ~name:(Stg.name stg) (Gformat.to_string stg)

let kernel_labelings =
  lazy
    (let rand = Qseed.state () in
     List.concat_map lifted_labelings
       ([
          parsed (Bench_gen.concurrent_pulsers ~branches:4);
          parsed (Bench_gen.concurrent_pulsers ~branches:5);
          parsed (Bench_gen.mixed ~stages:2 ~branches:3);
          parsed (Bench_gen.mixed ~stages:3 ~branches:3);
        ]
       @ List.init (50 * Qseed.soak) (fun _ -> Bench_gen.random ~rand)))

(* The folded decisions answer CSC, semi-modularity and the violation
   count of [Sg_expand.expand g] without building it; they must equal
   the checks on the materialized graph on every graph above, on each
   one's [minimize_extra] candidates, on the final graphs of the
   generated mixed 3x3 and pulsers 5 nets, and on the labelings the
   implementation stage judges ([kernel_labelings]).  Both verdicts
   must occur, and the graphs of mr0, mmu1 and mixed 3x3 must include a
   refusal. *)
let expand_j2_finals =
  lazy
    (List.map
       (fun stg -> (Mpart.synthesize stg).Mpart.final)
       [
         Bench_gen.mixed ~stages:3 ~branches:3;
         Bench_gen.concurrent_pulsers ~branches:5;
       ])

let test_folded_agrees () =
  let graphs =
    concurrent_graph ()
    :: (Lazy.force data_graphs @ Lazy.force fuzz_graphs
       @ Lazy.force expand_j2_finals)
  in
  let with_candidates g =
    g
    :: List.init (Sg.n_extras g) (fun index ->
           Region_minimize.minimize_extra g ~index)
  in
  let seen = Hashtbl.create 4 and refused = Hashtbl.create 8 in
  let agree what g folded expanded =
    if folded <> expanded then
      Alcotest.failf "%s on %s (%d extras): folded %d, expanded %d" what
        (Sg.name g) (Sg.n_extras g) folded expanded
  in
  List.iter
    (fun g ->
      let e = Sg_expand.expand g in
      let csc = Sg_expand.csc_satisfied g
      and sm = Sg_expand.n_violations g = 0 in
      agree "csc" g (Bool.to_int csc) (Bool.to_int (Csc.csc_satisfied e));
      agree "semi-modular" g (Bool.to_int sm)
        (Bool.to_int (Persistency.is_semi_modular e));
      agree "violations" g (Sg_expand.n_violations g)
        (List.length (Persistency.violations e));
      agree "implementable" g
        (Bool.to_int (Sg_expand.implementable g))
        (Bool.to_int (csc && sm));
      Hashtbl.replace seen ("csc", csc) ();
      Hashtbl.replace seen ("semi-modular", sm) ();
      if not (csc && sm) then Hashtbl.replace refused (Sg.name g) ())
    (List.concat_map with_candidates graphs @ Lazy.force kernel_labelings);
  List.iter
    (fun key ->
      check
        (Printf.sprintf "%s = %b occurs" (fst key) (snd key))
        true (Hashtbl.mem seen key))
    [ ("csc", true); ("csc", false); ("semi-modular", true);
      ("semi-modular", false) ];
  List.iter
    (fun name -> check (name ^ " has a refusal") true (Hashtbl.mem refused name))
    [ "mr0"; "mmu1"; "mixed3x3" ]

let () =
  Alcotest.run "stategraph"
    [
      ( "fourval",
        [
          Alcotest.test_case "binary" `Quick test_fourval_binary;
          Alcotest.test_case "edge pairs" `Quick test_fourval_edges;
          Alcotest.test_case "merge" `Quick test_fourval_merge;
          Alcotest.test_case "bits" `Quick test_fourval_bits;
        ] );
      ( "derivation",
        [
          Alcotest.test_case "codes" `Quick test_of_stg_codes;
          Alcotest.test_case "inconsistent" `Quick test_of_stg_inconsistent;
          Alcotest.test_case "dummy contraction" `Quick
            test_of_stg_dummy_contraction;
          Alcotest.test_case "toggles" `Quick test_of_stg_toggle_resolution;
          Alcotest.test_case "implied value" `Quick test_implied_value;
          Alcotest.test_case "sigma golden" `Quick test_sg_golden;
          Alcotest.test_case "edges are flat" `Quick test_edges_flat;
          Alcotest.test_case "expansion allocation" `Quick
            test_expand_allocation;
          Alcotest.test_case "adjacency = edge arrays" `Quick test_adjacency;
          Alcotest.test_case "sigma = per-signal reference" `Slow
            test_sigma_reference;
        ] );
      ( "csc",
        [
          Alcotest.test_case "conflict" `Quick test_csc_conflict;
          Alcotest.test_case "clean" `Quick test_csc_clean;
          Alcotest.test_case "output conflicts" `Quick test_output_conflicts;
        ] );
      ( "extras",
        [
          Alcotest.test_case "add" `Quick test_add_extra;
          Alcotest.test_case "invalid" `Quick test_add_extra_invalid;
          Alcotest.test_case "set values" `Quick test_set_extra_values;
        ] );
      ( "quotient",
        [
          Alcotest.test_case "hide output" `Quick test_quotient_hide_all_outputs;
          Alcotest.test_case "extra merge" `Quick test_quotient_preserves_extra;
          Alcotest.test_case "up/dn rejection" `Quick
            test_quotient_rejects_updn_merge;
          Alcotest.test_case "drop extra" `Quick test_quotient_keep_extra_filter;
        ] );
      ( "expansion",
        [
          Alcotest.test_case "pulse" `Quick test_expand_pulse;
          Alcotest.test_case "no extras" `Quick test_expand_no_extras;
          Alcotest.test_case "concurrent" `Quick test_expand_concurrent;
          Alcotest.test_case "constant extra" `Quick test_expand_constant_extra;
          Alcotest.test_case "serialized crossing" `Quick
            test_expand_serializes_half_edges;
        ] );
      ( "region minimization",
        [
          Alcotest.test_case "preserves csc" `Quick
            test_region_minimize_preserves_csc;
          Alcotest.test_case "illegal wide region" `Quick
            test_region_minimize_shrinks_expansion;
        ] );
      ( "one-pass expansion",
        [
          Alcotest.test_case "data with extras" `Quick test_one_pass_data;
          Alcotest.test_case "50 random STGs" `Slow test_one_pass_fuzz;
          Alcotest.test_case "concurrent extras" `Quick test_one_pass_concurrent;
          Alcotest.test_case "early-exit checks agree" `Slow
            test_early_exit_agrees;
          Alcotest.test_case "folded decisions agree" `Slow
            test_folded_agrees;
        ] );
    ]
