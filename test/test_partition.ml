(* Partition-auditor tests (rule family M, mpsyn-plan/1, plan dedup).

   Four pillars:
   - differential: a naive, from-scratch re-implementation of the
     Fig. 2 greedy derivation (list-based sets, its own trigger scan,
     its own conflict counting over independently recomputed full
     codes, one Sg.quotient per candidate) must agree with
     Input_derivation, down to the module digest, on every shipped
     benchmark and on fuzzed STGs, with and without inserted state
     signals;
   - mutants: each M rule fires on a programmatically tampered cone,
     with the diagnostic span resolving to the output's declaration
     and the witness naming the offending chain;
   - zero false positives: the plan of every shipped clean benchmark
     carries no M1/M5 violation, and rendering it with the default
     thresholds yields Info findings only;
   - dedup: the process-wide {!Counter.solver} counter proves that the
     duplicate-cone replay saves solver invocations, and the final
     graph digest proves [--jobs] invariance with dedup active. *)

let data_dir = Filename.concat ".." "data"
let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

let g_files () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare

let check b msg = Alcotest.(check bool) msg true b

let mem_sub m sub =
  let n = String.length sub and len = String.length m in
  let rec go i = i + n <= len && (String.sub m i n = sub || go (i + 1)) in
  go 0

(* ================================================================== *)
(* Naive Fig. 2 oracle                                                 *)

(* Implied next value of [s] at [m], re-derived by scanning the
   outgoing edges instead of calling Sg.implied_value. *)
let nimplied g m s =
  let has d =
    List.exists (fun (e : Sg.edge) -> e.Sg.label = Sg.Ev (s, d)) (Sg.succ g m)
  in
  if has Sg.R then true else Sg.bit g m s && not (has Sg.F)

(* Full code of [m] recomputed from parts: visible code plus the
   binary image of each extra, in extras order. *)
let nfull_code g m =
  let c = ref (Sg.code g m) in
  Array.iteri
    (fun i (x : Sg.extra) ->
      if Fourval.binary x.Sg.values.(m) then
        c := !c lor (1 lsl (Sg.n_signals g + i)))
    (Sg.extras g);
  !c

(* CSC conflict classes of [output]: equal-full-code groups of >= 2
   states mixing implied values — counted by sorting an association
   list, not through Csc's hashtable grouping. *)
let nconflict_classes g ~output =
  let n = Sg.n_states g in
  let rec groups = function
    | [] -> []
    | (c, m) :: rest ->
      let same, rest' = List.partition (fun (c', _) -> c' = c) rest in
      (m :: List.map snd same) :: groups rest'
  in
  List.init n (fun m -> (nfull_code g m, m))
  |> List.sort compare |> groups
  |> List.filter (fun ms -> List.length ms >= 2)
  |> List.filter (fun ms ->
         List.exists (fun m -> nimplied g m output) ms
         && List.exists (fun m -> not (nimplied g m output)) ms)
  |> List.length

(* Trigger set of [output]: signals with an edge entering an excited
   state from a non-excited one. *)
let ntriggers g ~output =
  let excited m =
    List.exists
      (fun (e : Sg.edge) ->
        match e.Sg.label with Sg.Ev (s, _) -> s = output | Sg.Eps -> false)
      (Sg.succ g m)
  in
  let trig = ref [] in
  for s = Sg.n_signals g - 1 downto 0 do
    if
      s <> output
      && Array.exists
           (fun (e : Sg.edge) ->
             match e.Sg.label with
             | Sg.Ev (s', _) ->
               s' = s && excited e.Sg.dst && not (excited e.Sg.src)
             | Sg.Eps -> false)
           (Sg.edges g)
    then trig := s :: !trig
  done;
  !trig

(* The greedy derivation itself, mirroring determine's decision order
   (extras first, then ascending signals) over the naive primitives. *)
let ndetermine g ~output =
  let oname = Sg.signal_name g output in
  let immediate = ntriggers g ~output in
  let view ~hidden ~dropped =
    Sg.quotient g
      ~keep_signal:(fun s -> not (List.mem s hidden))
      ~keep_extra:(fun x -> not (List.mem x dropped))
  in
  let conflicts (msg, _) =
    nconflict_classes msg ~output:(Sg.find_signal msg oname)
  in
  let homogeneous cover n_classes =
    let seen = Array.make n_classes 0 in
    let ok = ref true in
    for m = 0 to Sg.n_states g - 1 do
      let v = if nimplied g m output then 2 else 1 in
      let c = cover.(m) in
      if seen.(c) = 0 then seen.(c) <- v else if seen.(c) <> v then ok := false
    done;
    !ok
  in
  let hidden = ref [] and dropped = ref [] in
  let current = ref (Option.get (view ~hidden:[] ~dropped:[])) in
  let n_csc = ref (conflicts !current) in
  let kept_extras = ref [] in
  Array.iter
    (fun (x : Sg.extra) ->
      let attempt = x.Sg.xname :: !dropped in
      match view ~hidden:!hidden ~dropped:attempt with
      | None -> kept_extras := x.Sg.xname :: !kept_extras
      | Some v ->
        let n' = conflicts v in
        if n' > !n_csc then kept_extras := x.Sg.xname :: !kept_extras
        else begin
          dropped := attempt;
          n_csc := n';
          current := v
        end)
    (Sg.extras g);
  let input_set = ref [] in
  for s = 0 to Sg.n_signals g - 1 do
    if s <> output then
      if List.mem s immediate then input_set := s :: !input_set
      else begin
        let keep () = input_set := s :: !input_set in
        let attempt = s :: !hidden in
        match view ~hidden:attempt ~dropped:!dropped with
        | None -> keep ()
        | Some (sg', cover') ->
          if not (homogeneous cover' (Sg.n_states sg')) then keep ()
          else
            let n' = conflicts (sg', cover') in
            if n' <= !n_csc then begin
              hidden := attempt;
              n_csc := n';
              current := (sg', cover')
            end
            else keep ()
      end
  done;
  let msg, cover = !current in
  (List.sort Int.compare !input_set, immediate, List.rev !kept_extras, msg, cover)

let compare_derivations ctx g =
  for output = 0 to Sg.n_signals g - 1 do
    if Sg.non_input g output then begin
      let where =
        Printf.sprintf "%s/%s" ctx (Sg.signal_name g output)
      in
      let inp = Input_derivation.determine g ~output in
      let n_inputs, n_immediate, n_kept, n_msg, n_cover = ndetermine g ~output in
      Alcotest.(check (list int))
        (where ^ ": input sets agree")
        n_inputs inp.Input_derivation.input_set;
      Alcotest.(check (list int))
        (where ^ ": immediate sets agree")
        n_immediate inp.Input_derivation.immediate;
      Alcotest.(check (list string))
        (where ^ ": kept extras agree")
        n_kept inp.Input_derivation.kept_extras;
      Alcotest.(check string)
        (where ^ ": module graphs agree")
        (Sg.digest n_msg)
        (Sg.digest inp.Input_derivation.module_sg);
      Alcotest.(check (array int))
        (where ^ ": covers agree")
        n_cover inp.Input_derivation.cover
    end
  done

(* The complete graph of [stg] carrying the first k state signals of
   its synthesized final graph, for every k >= 1: extras drive the
   derivation through the Figure-3 merge rules, which plain [Sg.of_stg]
   graphs never reach.  Empty when synthesis fails. *)
let with_extras stg g =
  match (Mpart.synthesize stg).Mpart.final with
  | exception _ -> []
  | final ->
    let xs = Sg.extras final in
    List.init (Array.length xs) (fun k ->
        Array.fold_left
          (fun acc (x : Sg.extra) ->
            Sg.add_extra acc ~name:x.Sg.xname ~values:x.Sg.values)
          g (Array.sub xs 0 (k + 1)))

(* Compares the plain complete graph and each of its extra-carrying
   variants; returns the number of variants. *)
let compare_with_extras ctx stg g =
  compare_derivations ctx g;
  let variants = with_extras stg g in
  List.iteri
    (fun k g' -> compare_derivations (Printf.sprintf "%s+%dx" ctx (k + 1)) g')
    variants;
  List.length variants

let test_differential_benchmarks () =
  let variants =
    List.fold_left
      (fun acc f ->
        let stg = Gformat.parse_file (Filename.concat data_dir f) in
        acc + compare_with_extras f stg (Sg.of_stg stg))
      0 (g_files ())
  in
  check (variants > 0) "some benchmark graphs carried extras"

let test_differential_fuzz () =
  let rand = Qseed.state () in
  let tried = ref 0 in
  for i = 1 to 25 do
    let stg = Bench_gen.random ~rand in
    match Sg.of_stg stg with
    | exception _ -> () (* inconsistent/oversized random STG: skip *)
    | g ->
      incr tried;
      ignore (compare_with_extras (Printf.sprintf "fuzz%d" i) stg g : int)
  done;
  check (!tried > 10) "most fuzzed STGs were comparable"

(* ================================================================== *)
(* Cones and tampering                                                 *)

let cone_of g output =
  let inp = Input_derivation.determine g ~output in
  let msg = inp.Input_derivation.module_sg in
  let local = Sg.find_signal msg (Sg.signal_name g output) in
  {
    Partition_check.c_output = output;
    c_inputs = inp.Input_derivation.input_set;
    c_immediate = inp.Input_derivation.immediate;
    c_kept_extras = inp.Input_derivation.kept_extras;
    c_module = msg;
    c_cover = inp.Input_derivation.cover;
    c_conflicts = nconflict_classes msg ~output:local;
  }

let cones_of g =
  List.filter_map
    (fun s -> if Sg.non_input g s then Some (cone_of g s) else None)
    (List.init (Sg.n_signals g) Fun.id)

let ring_src =
  ".model m-ring\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- \
   a+\n.marking { <b-,a+> }\n.end\n"

let diags_of ?degenerate_threshold ?min_signals ~loc g cones =
  Partition_check.diagnostics ?degenerate_threshold ?min_signals ~loc
    (Partition_check.summarize ~complete:g cones)

(* M1: deleting the trigger from the recorded input/immediate sets is
   refuted with the witnessing edge chain, anchored at b's declaration. *)
let test_m1_missing_trigger () =
  let stg, map = Gformat.parse_string_spans ring_src in
  let g = Sg.of_stg stg in
  let b = Sg.find_signal g "b" in
  let c = cone_of g b in
  let tampered = { c with Partition_check.c_inputs = []; c_immediate = [] } in
  let ds = diags_of ~loc:(Diagnostic.of_source_map map) g [ tampered ] in
  let m1 = List.filter (fun d -> d.Diagnostic.rule = "M1-closure") ds in
  check (m1 <> []) "M1 fires on the dropped trigger";
  let d = List.hd m1 in
  check (d.Diagnostic.severity = Diagnostic.Error) "M1 is an error";
  check
    (Diagnostic.subject_name d.Diagnostic.subject = "b")
    "M1 blames the output";
  Alcotest.(check (option (of_pp Gformat.pp_span)))
    "M1 span is b's declaration" (Gformat.signal_span map "b")
    d.Diagnostic.span;
  check
    (List.exists
       (fun d -> mem_sub d.Diagnostic.message "trigger a of output b is missing")
       m1)
    "M1 names the missing trigger";
  check
    (List.exists
       (fun d ->
         mem_sub d.Diagnostic.explanation "witness:"
         && mem_sub d.Diagnostic.explanation "where b is excited")
       m1)
    "M1 carries the witnessing chain"

(* M1's homogeneity leg: collapsing the whole cover into one module
   state mixes both implied values of b. *)
let test_m1_inhomogeneous_cover () =
  let stg, _ = Gformat.parse_string_spans ring_src in
  let g = Sg.of_stg stg in
  let b = Sg.find_signal g "b" in
  let c = cone_of g b in
  let flat = { c with Partition_check.c_cover = Array.map (fun _ -> 0) c.Partition_check.c_cover } in
  let ds = diags_of ~loc:Diagnostic.no_loc g [ flat ] in
  check
    (List.exists
       (fun d ->
         d.Diagnostic.rule = "M1-closure"
         && mem_sub d.Diagnostic.explanation "witness: states"
         && mem_sub d.Diagnostic.explanation "merge into module state 0")
       ds)
    "M1 refutes the value-mixing merge with both states"

(* M5: three distinct cover corruptions, three distinct witnesses. *)
let test_m5_corrupted_cover () =
  let stg, map = Gformat.parse_string_spans ring_src in
  let g = Sg.of_stg stg in
  let b = Sg.find_signal g "b" in
  let c = cone_of g b in
  let m5 ds =
    List.filter (fun d -> d.Diagnostic.rule = "M5-consistency") ds
  in
  let witness_of ds sub name =
    check
      (List.exists
         (fun d ->
           d.Diagnostic.severity = Diagnostic.Error
           && mem_sub d.Diagnostic.explanation sub)
         (m5 ds))
      name
  in
  (* truncated cover *)
  let short =
    { c with Partition_check.c_cover = Array.sub c.Partition_check.c_cover 0 1 }
  in
  witness_of
    (diags_of ~loc:Diagnostic.no_loc g [ short ])
    "entries for" "M5 refutes a truncated cover";
  (* out-of-range class *)
  let oob_cover = Array.copy c.Partition_check.c_cover in
  oob_cover.(0) <- Sg.n_states c.Partition_check.c_module;
  witness_of
    (diags_of ~loc:Diagnostic.no_loc g [ { c with Partition_check.c_cover = oob_cover } ])
    "out of range" "M5 refutes an out-of-range cover entry";
  (* swap two states with different codes: the projection breaks *)
  let swapped = Array.copy c.Partition_check.c_cover in
  let t = swapped.(0) in
  swapped.(0) <- swapped.(1);
  swapped.(1) <- t;
  let ds =
    diags_of
      ~loc:(Diagnostic.of_source_map map)
      g
      [ { c with Partition_check.c_cover = swapped } ]
  in
  witness_of ds "projects to code" "M5 refutes a broken projection";
  let d = List.hd (m5 ds) in
  Alcotest.(check (option (of_pp Gformat.pp_span)))
    "M5 span is b's declaration" (Gformat.signal_span map "b")
    d.Diagnostic.span

(* M2: with the threshold floored every conflicted cone degenerates. *)
let test_m2_degenerate_threshold () =
  let stg = (List.assoc "vbe-ex1" Bench_data.all) () in
  let g = Sg.of_stg stg in
  let ds =
    diags_of ~degenerate_threshold:0.0 ~min_signals:0 ~loc:Diagnostic.no_loc g
      (cones_of g)
  in
  check
    (List.exists
       (fun d ->
         d.Diagnostic.rule = "M2-degenerate"
         && d.Diagnostic.severity = Diagnostic.Warning
         && mem_sub d.Diagnostic.message "degenerates toward direct SAT")
       ds)
    "M2 warns on a conflicted near-total cone";
  (* and with the shipped defaults the same plan renders clean *)
  let defaults = diags_of ~loc:Diagnostic.no_loc g (cones_of g) in
  check
    (List.for_all (fun d -> d.Diagnostic.severity = Diagnostic.Info) defaults)
    "default thresholds stay quiet"

(* M3 positive: alex-nonfc has two symmetric output pairs. *)
let test_m3_duplicates_alex () =
  let stg = Gformat.parse_file (Filename.concat data_dir "alex-nonfc.g") in
  let plan = Mpart.partition_summary Mpart.default_config stg in
  let dup_outputs =
    List.concat_map (fun d -> d.Partition_check.dg_outputs)
      plan.Partition_check.p_duplicates
  in
  Alcotest.(check int)
    "two duplicate groups" 2
    (List.length plan.Partition_check.p_duplicates);
  List.iter
    (fun o -> check (List.mem o dup_outputs) (o ^ " in a duplicate group"))
    [ "x"; "y"; "z"; "w" ];
  (* the group digests are the digests the cone stats carry *)
  List.iter
    (fun (d : Partition_check.dup_group) ->
      check
        (List.exists
           (fun cs -> cs.Partition_check.cs_digest = d.Partition_check.dg_digest)
           plan.Partition_check.p_cones)
        "group digest matches a cone digest")
    plan.Partition_check.p_duplicates;
  (* M3 renders as Info: the report stays strict-clean *)
  let ds =
    Lint.partition stg plan
  in
  check
    (List.exists (fun d -> d.Diagnostic.rule = "M3-duplicate") ds)
    "M3 info emitted";
  check
    (List.for_all (fun d -> d.Diagnostic.severity = Diagnostic.Info) ds)
    "alex-nonfc findings are Info only"

(* M4 positive: alloc-outbound's conflicted cones overlap, and the
   solve order sorts by ascending risk. *)
let test_m4_risk_alloc () =
  let stg = Gformat.parse_file (Filename.concat data_dir "alloc-outbound.g") in
  let plan = Mpart.partition_summary Mpart.default_config stg in
  check (plan.Partition_check.p_risky <> []) "risk pairs found";
  check
    (List.exists
       (fun rp ->
         rp.Partition_check.rp_a = "sendline"
         && rp.Partition_check.rp_b = "rts"
         && rp.Partition_check.rp_shared = 2)
       plan.Partition_check.p_risky)
    "sendline/rts share two cone signals";
  let risk_of o =
    let cs =
      List.find
        (fun cs -> cs.Partition_check.cs_output = o)
        plan.Partition_check.p_cones
    in
    cs.Partition_check.cs_risk
  in
  let risks = List.map risk_of plan.Partition_check.p_order in
  check (List.sort compare risks = risks) "solve order ascends in risk";
  Alcotest.(check int)
    "order covers every output"
    (List.length plan.Partition_check.p_cones)
    (List.length plan.Partition_check.p_order)

(* ================================================================== *)
(* Zero false positives over the shipped suite                          *)

let test_no_false_positives () =
  List.iter
    (fun f ->
      let stg, map =
        Gformat.parse_file_spans (Filename.concat data_dir f)
      in
      let plan = Mpart.partition_summary Mpart.default_config stg in
      check
        (plan.Partition_check.p_violations = [])
        (f ^ ": no M1/M5 violations");
      let ds = Lint.partition ~map stg plan in
      check
        (List.for_all (fun d -> d.Diagnostic.severity = Diagnostic.Info) ds)
        (f ^ ": M findings are Info only");
      (* the plan orders every output, ascending in risk *)
      Alcotest.(check int)
        (f ^ ": order is total")
        (List.length plan.Partition_check.p_cones)
        (List.length plan.Partition_check.p_order))
    (g_files ())

(* ================================================================== *)
(* Dedup: solver calls provably drop, results stay verified            *)

let two_outputs_stg () =
  Stg_builder.(
    compile ~name:"two" ~inputs:[ "r" ] ~outputs:[ "x"; "y" ]
      (seq
         [
           plus "r";
           par [ seq [ plus "x"; minus "x" ]; seq [ plus "y"; minus "y" ] ];
           minus "r";
         ]))

let test_dedup_saves_solver_calls () =
  let run dedup =
    let config = { Mpart.default_config with dedup_cones = dedup; jobs = 1 } in
    let before = Counter.get Counter.solver in
    let r = Mpart.synthesize ~config (two_outputs_stg ()) in
    (r, Counter.get Counter.solver - before)
  in
  let fresh, fresh_calls = run false in
  let dedup, dedup_calls = run true in
  Alcotest.(check (option string)) "fresh verifies" None (Mpart.verify fresh);
  Alcotest.(check (option string)) "dedup verifies" None (Mpart.verify dedup);
  Alcotest.(check (list string)) "no replay without dedup" [] fresh.Mpart.replayed;
  check (dedup.Mpart.replayed <> []) "dedup replays a twin";
  check
    (dedup_calls < fresh_calls)
    (Printf.sprintf "solver calls drop (%d < %d)" dedup_calls fresh_calls);
  (* the plan records the duplicate group the replay consumed *)
  check
    (dedup.Mpart.plan.Partition_check.p_duplicates <> [])
    "result plan records the duplicate group"

(* --jobs invariance with dedup and risk ordering active: the final
   graph is bit-identical however the analyses were scheduled. *)
let test_jobs_invariant_with_dedup () =
  let stg = Gformat.parse_file (Filename.concat data_dir "alex-nonfc.g") in
  let run jobs =
    Mpart.synthesize ~config:{ Mpart.default_config with jobs } stg
  in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check string)
    "final graphs identical" (Sg.digest r1.Mpart.final)
    (Sg.digest r4.Mpart.final);
  Alcotest.(check int)
    "areas identical"
    (Mpart.area_literals r1) (Mpart.area_literals r4);
  Alcotest.(check (list string))
    "same outputs replayed" r1.Mpart.replayed r4.Mpart.replayed

(* ================================================================== *)
(* CLI: exit-code contract, --plan document, --jobs byte identity       *)

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_cli args =
  let out = Filename.temp_file "mpsyn_partition" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> /dev/null" mpsyn args out)
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

(* The README's exit-code table: 0 clean, 2 usage, 3 lint rejection
   (here an M2 warning under --strict); 4/5 are pinned by the synth
   and hazard suites against the same table. *)
let test_cli_exit_codes () =
  let clean, _ =
    run_cli
      (Printf.sprintf "lint --partition --strict %s"
         (Filename.concat data_dir "alex-nonfc.g"))
  in
  Alcotest.(check int) "clean partition lint exits 0" 0 clean;
  let usage, _ =
    run_cli
      (Printf.sprintf "lint --hazard %s" (Filename.concat data_dir "mr1.g"))
  in
  Alcotest.(check int) "usage error exits 2" 2 usage;
  let rejected, _ =
    run_cli
      (Printf.sprintf "lint --partition --degenerate-threshold 0 --strict %s"
         (Filename.concat data_dir "ram-read-sbuf.g"))
  in
  Alcotest.(check int) "strict M2 rejection exits 3" 3 rejected

let test_cli_plan_document () =
  let plan = Filename.temp_file "mpsyn_plan" ".json" in
  let code, _ =
    run_cli
      (Printf.sprintf "lint --plan %s %s" plan
         (Filename.concat data_dir "alex-nonfc.g"))
  in
  let doc = read_file plan in
  Sys.remove plan;
  Alcotest.(check int) "--plan (implying --partition) exits 0" 0 code;
  let doc = Json.of_string doc in
  let member k = Json.member k doc in
  check (Json.to_str (member "schema") = "mpsyn-plan/1") "plan schema tag";
  check (Json.to_list (member "duplicates") <> []) "duplicate groups serialized";
  check (Json.to_list (member "order") <> []) "solve order serialized";
  check
    (List.for_all
       (fun c -> String.length (Json.to_str (Json.member "digest" c)) = 32)
       (Json.to_list (member "cones")))
    "cone digests serialized"

let test_cli_jobs_deterministic () =
  let files =
    String.concat " "
      (List.map (Filename.concat data_dir)
         [ "alex-nonfc.g"; "alloc-outbound.g"; "mr1.g" ])
  in
  List.iter
    (fun fmt ->
      let c1, o1 =
        run_cli (Printf.sprintf "lint --partition %s --jobs 1 %s" fmt files)
      in
      let c4, o4 =
        run_cli (Printf.sprintf "lint --partition %s --jobs 4 %s" fmt files)
      in
      Alcotest.(check int) ("exit codes agree" ^ fmt) c1 c4;
      Alcotest.(check string) ("output identical" ^ fmt) o1 o4;
      Alcotest.(check bool) ("output nonempty" ^ fmt) true (o1 <> ""))
    [ ""; " --json" ]

(* ================================================================== *)

let () =
  Alcotest.run "partition"
    [
      ( "differential",
        [
          Alcotest.test_case "naive Fig. 2 oracle agrees on data/*.g" `Quick
            test_differential_benchmarks;
          Alcotest.test_case "naive Fig. 2 oracle agrees on fuzzed STGs"
            `Quick test_differential_fuzz;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "M1 missing trigger" `Quick
            test_m1_missing_trigger;
          Alcotest.test_case "M1 inhomogeneous cover" `Quick
            test_m1_inhomogeneous_cover;
          Alcotest.test_case "M5 corrupted cover" `Quick
            test_m5_corrupted_cover;
          Alcotest.test_case "M2 degenerate threshold" `Quick
            test_m2_degenerate_threshold;
          Alcotest.test_case "M3 duplicates on alex-nonfc" `Quick
            test_m3_duplicates_alex;
          Alcotest.test_case "M4 risk on alloc-outbound" `Quick
            test_m4_risk_alloc;
        ] );
      ( "clean",
        [
          Alcotest.test_case "data/*.g plans audit clean" `Quick
            test_no_false_positives;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "replay saves solver calls" `Quick
            test_dedup_saves_solver_calls;
          Alcotest.test_case "--jobs invariant with dedup" `Quick
            test_jobs_invariant_with_dedup;
        ] );
      ( "cli",
        [
          Alcotest.test_case "exit codes (0/2/3)" `Quick test_cli_exit_codes;
          Alcotest.test_case "--plan document" `Quick test_cli_plan_document;
          Alcotest.test_case "--jobs byte identity" `Quick
            test_cli_jobs_deterministic;
        ] );
    ]
