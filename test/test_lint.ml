(* Static-analysis (lint) engine tests.

   Three pillars:
   - mutated benchmarks: each injected defect class is caught by the
     rule that owns it, with a source span pointing at the offending
     declaration or arc;
   - zero false positives: every shipped clean STG (data/*.g and the
     built-in reconstructions) lints with no errors and no warnings;
   - the A6 lock-relation prescreen: the lock-ring family is certified
     and `Mpart.synthesize` provably skips SAT — asserted through the
     process-wide solver-call counter, not trusted from a flag — while
     an uncertified benchmark provably does call the solver.  A
     dynamic cross-check validates every certificate the prescreen
     issues against the real state graph. *)

let data_dir = Filename.concat ".." "data"

let g_files () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare

let lint_string src =
  let stg, map = Gformat.parse_string_spans src in
  (Lint.run ~map stg, map)

let find_rule report rule =
  List.filter
    (fun d -> d.Diagnostic.rule = rule)
    report.Diagnostic.diagnostics

let has_error_on rule subject report =
  List.exists
    (fun d ->
      d.Diagnostic.severity = Diagnostic.Error
      && Diagnostic.subject_name d.Diagnostic.subject = subject)
    (find_rule report rule)

let check b msg = Alcotest.(check bool) msg true b

let mem_sub hay sub =
  let n = String.length sub and len = String.length hay in
  let rec go i = i + n <= len && (String.sub hay i n = sub || go (i + 1)) in
  go 0

(* ---- source spans ---- *)

let test_spans () =
  let src =
    ".model spans\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- \
     a+\n.marking { <b-,a+> }\n.end\n"
  in
  let _, map = Gformat.parse_string_spans src in
  (match Gformat.signal_span map "b" with
  | Some s ->
    Alcotest.(check int) "signal b line" 3 s.Gformat.line;
    Alcotest.(check int) "signal b col" 10 s.Gformat.col_start
  | None -> Alcotest.fail "no span for signal b");
  (match Gformat.transition_span map "a-" with
  | Some s ->
    (* first occurrence: line 6, "b+ a-" *)
    Alcotest.(check int) "a- line" 6 s.Gformat.line;
    Alcotest.(check int) "a- col" 4 s.Gformat.col_start
  | None -> Alcotest.fail "no span for a-");
  check (Gformat.place_span map "<b-,a+>" <> None) "implicit place has a span"

(* ---- mutated benchmarks, one per defect class ---- *)

(* b rises twice per cycle and never falls: A1 must blame signal b at
   its declaration site. *)
let test_mutant_inconsistent () =
  let report, map =
    lint_string
      ".model m-incons\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- \
       b+/2\nb+/2 a+\n.marking { <b+/2,a+> }\n.end\n"
  in
  let report = report.Lint.report in
  check (has_error_on "A1-consistency" "b" report) "A1 blames signal b";
  let d =
    List.find
      (fun d -> Diagnostic.subject_name d.Diagnostic.subject = "b")
      (find_rule report "A1-consistency")
  in
  Alcotest.(check (option (of_pp Gformat.pp_span)))
    "A1 span is b's declaration" (Gformat.signal_span map "b")
    d.Diagnostic.span;
  check (d.Diagnostic.span <> None) "A1 span present"

(* An extra token on the explicit place p0 lifts the ring invariant's
   conserved sum to 2: A2 must flag the structural bound. *)
let test_mutant_unsafe () =
  let report, map =
    lint_string
      ".model m-unsafe\n.inputs a\n.outputs b\n.graph\na+ p0\np0 b+\nb+ \
       a-\na- b-\nb- a+\n.marking { <b-,a+> p0 }\n.end\n"
  in
  let report = report.Lint.report in
  check (has_error_on "A2-safeness" "p0" report) "A2 blames place p0";
  let d =
    List.find
      (fun d -> Diagnostic.subject_name d.Diagnostic.subject = "p0")
      (find_rule report "A2-safeness")
  in
  Alcotest.(check (option (of_pp Gformat.pp_span)))
    "A2 span is p0's first occurrence" (Gformat.place_span map "p0")
    d.Diagnostic.span;
  check (d.Diagnostic.span <> None) "A2 span present"

(* Signal c's private cycle carries no token: its transitions can never
   fire.  A4 owns the finding (A2 also reports the unmarkable places). *)
let test_mutant_dead () =
  let report, map =
    lint_string
      ".model m-dead\n.inputs a\n.outputs b c\n.graph\na+ b+\nb+ a-\na- \
       b-\nb- a+\np0 c+\nc+ p1\np1 c-\nc- p0\n.marking { <b-,a+> }\n.end\n"
  in
  let report = report.Lint.report in
  check (has_error_on "A4-deadcode" "c+" report) "A4 blames transition c+";
  check (has_error_on "A4-deadcode" "c-" report) "A4 blames transition c-";
  let d =
    List.find
      (fun d -> Diagnostic.subject_name d.Diagnostic.subject = "c+")
      (find_rule report "A4-deadcode")
  in
  Alcotest.(check (option (of_pp Gformat.pp_span)))
    "A4 span is c+'s first occurrence"
    (Gformat.transition_span map "c+")
    d.Diagnostic.span;
  check (d.Diagnostic.span <> None) "A4 span present"

(* Two concurrent branches each transition b: rise/fall counts stay
   balanced (A1 clean) but the two b+ instances can fire together. *)
let test_mutant_autoconcurrent () =
  let report, _ =
    lint_string
      ".model m-autoconc\n.inputs a\n.outputs b\n.graph\na+ b+ b+/2\nb+ \
       b-\nb+/2 b-/2\nb- a-\nb-/2 a-\na- a+\n.marking { <a-,a+> }\n.end\n"
  in
  let report = report.Lint.report in
  check
    (find_rule report "A1-consistency"
    |> List.for_all (fun d -> d.Diagnostic.severity <> Diagnostic.Error))
    "A1 stays quiet (balanced counts)";
  let a5 = find_rule report "A5-autoconcurrency" in
  check (a5 <> []) "A5 fires";
  check
    (List.exists
       (fun d ->
         d.Diagnostic.severity = Diagnostic.Warning
         && d.Diagnostic.span <> None)
       a5)
    "A5 warning carries a span"

(* lock-ring3 with the falling phase reordered: s2- follows s0- directly,
   so s1/s2 no longer alternate.  Still consistent, safe and even CSC —
   but the certificate must be withheld and must name the pair. *)
let test_mutant_unlocked () =
  let result, _ =
    lint_string
      ".model m-unlocked\n.inputs s0\n.outputs s1 s2\n.graph\ns0+ s1+\ns1+ \
       s2+\ns2+ s0-\ns0- s2-\ns2- s1-\ns1- s0+\n.marking { <s1-,s0+> }\n.end\n"
  in
  check (result.Lint.cert = None) "certificate withheld";
  let a6 = find_rule result.Lint.report "A6-lockrel" in
  check
    (List.exists
       (fun d ->
         let m = d.Diagnostic.message in
         (* mentions both signals of the unlocked pair *)
         mem_sub m "not certified" && mem_sub m "s1" && mem_sub m "s2")
       a6)
    "A6 names the unlocked pair";
  check (Diagnostic.clean result.Lint.report) "mutant is otherwise clean"

(* ---- zero false positives over every clean specification ---- *)

let test_no_false_positives_data () =
  List.iter
    (fun f ->
      let stg, map = Gformat.parse_file_spans (Filename.concat data_dir f) in
      let { Lint.report; _ } = Lint.run ~map stg in
      check (Diagnostic.clean report) (f ^ ": no lint errors");
      check (Diagnostic.strict_clean report) (f ^ ": no lint warnings"))
    (g_files ())

let test_no_false_positives_builtin () =
  List.iter
    (fun (name, build) ->
      let { Lint.report; _ } = Lint.run (build ()) in
      check (Diagnostic.clean report) (name ^ ": no lint errors");
      check (Diagnostic.strict_clean report) (name ^ ": no lint warnings"))
    Bench_data.all

(* ---- A6 certification and the SAT-skip proof ---- *)

let test_prescreen_certifies_rings () =
  List.iter
    (fun signals ->
      let stg = Bench_gen.lock_ring ~signals in
      check (Lint.prescreen stg <> None)
        (Printf.sprintf "lock_ring %d certified" signals))
    [ 2; 3; 5; 8 ]

let test_certified_synthesis_skips_sat () =
  List.iter
    (fun name ->
      let stg = (List.assoc name Bench_data.all) () in
      let before = Counter.get Counter.solver in
      let r = Mpart.synthesize stg in
      let delta = Counter.get Counter.solver - before in
      check r.Mpart.certificate (name ^ ": result records certificate");
      check
        (mem_sub
           (Format.asprintf "%a" Mpart.pp_report r)
           "CSC holds on the complete graph; SAT skipped")
        (name ^ ": report names the certificate");
      Alcotest.(check int) (name ^ ": zero solver calls") 0 delta;
      Alcotest.(check (option string)) (name ^ ": verifies") None (Mpart.verify r))
    [ "lock-ring2"; "lock-ring3"; "lock-ring5" ]

(* Negative control: an uncertified benchmark must actually reach the
   solver, proving the counter measures what we think it measures. *)
let test_uncertified_synthesis_calls_sat () =
  let stg = (List.assoc "vbe-ex1" Bench_data.all) () in
  let before = Counter.get Counter.solver in
  let r = Mpart.synthesize stg in
  let delta = Counter.get Counter.solver - before in
  check (not r.Mpart.certificate) "vbe-ex1 not certified";
  check (delta > 0) "vbe-ex1 synthesis invokes the solver"

(* Every certificate the prescreen issues must agree with the real state
   graph: soundness of the structural argument, checked dynamically. *)
let test_certificates_sound () =
  let targets =
    Bench_data.all
    @ List.map
        (fun n -> (Printf.sprintf "ring%d" n, fun () -> Bench_gen.lock_ring ~signals:n))
        [ 2; 3; 4; 5; 6; 7 ]
  in
  List.iter
    (fun (name, build) ->
      let stg = build () in
      match Lint.prescreen stg with
      | None -> ()
      | Some _ ->
        check
          (Csc.csc_satisfied (Sg.of_stg stg))
          (name ^ ": certificate agrees with the state graph"))
    targets

(* ---- netlist rules (A7) ---- *)

let netlist ~inputs ~outputs gates =
  { Netlist.name = "t"; inputs; outputs; gates }

let test_netlint_floating () =
  let nl =
    netlist ~inputs:[ "a" ] ~outputs:[ "x" ]
      [ Netlist.And { out = "x"; inputs = [ "a"; "ghost" ] } ]
  in
  let r = Lint.run_netlist nl in
  check (has_error_on "A7-netlist" "ghost" r) "floating wire flagged"

let test_netlint_multidriven () =
  let nl =
    netlist ~inputs:[ "a" ] ~outputs:[ "x" ]
      [
        Netlist.Inv { out = "x"; input = "a" };
        Netlist.Wire { out = "x"; input = "a" };
      ]
  in
  let r = Lint.run_netlist nl in
  check (has_error_on "A7-netlist" "x" r) "double driver flagged"

let test_netlint_comb_cycle () =
  let nl =
    netlist ~inputs:[ "a" ] ~outputs:[ "x" ]
      [
        Netlist.Wire { out = "x"; input = "a" };
        Netlist.Inv { out = "u"; input = "v" };
        Netlist.Inv { out = "v"; input = "u" };
      ]
  in
  let r = Lint.run_netlist nl in
  check
    (List.exists
       (fun d ->
         d.Diagnostic.severity = Diagnostic.Error
         && d.Diagnostic.message
            = "combinational cycle not passing through a state-holding wire")
       (find_rule r "A7-netlist"))
    "ring oscillator flagged"

let test_netlint_feedback_ok () =
  (* SOP next-state feedback through the implemented output is the
     intended realization — no cycle error. *)
  let nl =
    netlist ~inputs:[ "a" ] ~outputs:[ "b" ]
      [ Netlist.Or { out = "b"; inputs = [ "a"; "b" ] } ]
  in
  let r = Lint.run_netlist nl in
  check (Diagnostic.clean r) "output feedback is legitimate"

let test_netlint_unused () =
  let nl =
    netlist ~inputs:[ "a" ] ~outputs:[ "x" ]
      [
        Netlist.Wire { out = "x"; input = "a" };
        Netlist.Inv { out = "n"; input = "a" };
      ]
  in
  let r = Lint.run_netlist nl in
  check
    (List.exists
       (fun d ->
         d.Diagnostic.severity = Diagnostic.Warning
         && Diagnostic.subject_name d.Diagnostic.subject = "n")
       (find_rule r "A7-netlist"))
    "unused gate flagged as warning"

(* ---- JSON shape ---- *)

let test_json () =
  let result, _ = lint_string ".model j\n.inputs a\n.outputs b\n.graph\na+ \
                               b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> \
                               }\n.end\n" in
  let doc =
    Json.of_string (Json.to_string (Diagnostic.to_json result.Lint.report))
  in
  let member k = Json.member k doc in
  check (Json.to_str (member "schema") = "mpsyn-lint/1") "has schema version";
  check
    (Json.to_int (Json.member "errors" (member "summary")) = 0)
    "has summary";
  let rules =
    List.map
      (fun d -> Json.to_str (Json.member "rule" d))
      (Json.to_list (member "diagnostics"))
  in
  check (List.mem "A3-netclass" rules) "rules serialized"

(* ---- property: verdicts invariant under .g round trip ---- *)

(* Place identity is not part of the .g interchange semantics (implicit
   places are renamed by printing), so place subjects are normalized. *)
let verdict_key d =
  ( d.Diagnostic.rule,
    Diagnostic.severity_to_string d.Diagnostic.severity,
    match d.Diagnostic.subject with
    | Diagnostic.Sig n -> "sig:" ^ n
    | Diagnostic.Trans n -> "trans:" ^ n
    | Diagnostic.Place _ -> "place"
    | Diagnostic.Net _ -> "net" )

let verdicts stg =
  let { Lint.report; cert } = Lint.run stg in
  ( List.sort compare (List.map verdict_key report.Diagnostic.diagnostics),
    cert <> None )

let prop_lint_roundtrip =
  QCheck.Test.make ~name:"lint verdicts invariant under .g round trip"
    ~count:30
    QCheck.(make Gen.(return ()))
    (fun () ->
      let rand = Qseed.state () in
      let ok = ref true in
      for _ = 1 to 30 do
        let stg = Bench_gen.random ~rand in
        let reparsed = Gformat.parse_string (Gformat.to_string stg) in
        if verdicts stg <> verdicts reparsed then ok := false
      done;
      !ok)

let () =
  Alcotest.run "lint"
    [
      ( "spans",
        [ Alcotest.test_case "parser records spans" `Quick test_spans ] );
      ( "mutants",
        [
          Alcotest.test_case "A1 inconsistency" `Quick test_mutant_inconsistent;
          Alcotest.test_case "A2 unsafe place" `Quick test_mutant_unsafe;
          Alcotest.test_case "A4 dead transition" `Quick test_mutant_dead;
          Alcotest.test_case "A5 autoconcurrency" `Quick
            test_mutant_autoconcurrent;
          Alcotest.test_case "A6 unlocked pair" `Quick test_mutant_unlocked;
        ] );
      ( "clean",
        [
          Alcotest.test_case "data/*.g lint clean" `Quick
            test_no_false_positives_data;
          Alcotest.test_case "built-ins lint clean" `Quick
            test_no_false_positives_builtin;
        ] );
      ( "prescreen",
        [
          Alcotest.test_case "rings certified" `Quick
            test_prescreen_certifies_rings;
          Alcotest.test_case "certified synthesis skips SAT" `Quick
            test_certified_synthesis_skips_sat;
          Alcotest.test_case "uncertified synthesis calls SAT" `Quick
            test_uncertified_synthesis_calls_sat;
          Alcotest.test_case "certificates sound" `Quick
            test_certificates_sound;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "floating wire" `Quick test_netlint_floating;
          Alcotest.test_case "double driver" `Quick test_netlint_multidriven;
          Alcotest.test_case "combinational cycle" `Quick
            test_netlint_comb_cycle;
          Alcotest.test_case "output feedback ok" `Quick
            test_netlint_feedback_ok;
          Alcotest.test_case "unused gate" `Quick test_netlint_unused;
        ] );
      ( "json", [ Alcotest.test_case "report shape" `Quick test_json ] );
      ( "properties", [ Qseed.to_alcotest prop_lint_roundtrip ] );
    ]
