(* Tier-1 gates for the symbolic speed-independence checker
   (lib/analysis/hazard_check.ml, rules H1-H5):

   - every shipped benchmark's synthesized netlist must certify
     statically (or refute with a counterexample that replays at gate
     level — but on this suite the dynamic oracle passes, so anything
     but a certificate is a disagreement);
   - the static verdict must never contradict the dynamic conformance
     oracle, over the shipped suite and over fuzzed STGs (abstention
     claims nothing and never conflicts);
   - a static certificate makes [Oracle.certify ~skip_when_certified]
     elide the product exploration, and the {!Counter.sim} /
     {!Counter.solver} counters *prove* the skip on the lock-ring family;
   - a genuinely hazardous circuit (an output whose excitation an input
     can steal) is refuted with replayable counterexamples, and the CLI
     surfaces that as exit code 5. *)

let data_dir = Filename.concat ".." "data"
let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

let g_files () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare

let analyze_impl (impl : Oracle.impl) =
  Hazard_check.analyze ~expanded:impl.Oracle.expanded
    ~functions:impl.Oracle.functions impl.Oracle.netlist

let impl_of stg = Oracle.impl_of_result (Mpart.synthesize stg)

(* ---------------- shipped benchmarks all certify ---------------- *)

let test_benchmark_certifies file () =
  let stg = Gformat.parse_file (Filename.concat data_dir file) in
  let impl = impl_of stg in
  let hz = analyze_impl impl in
  match hz.Hazard_check.verdict with
  | Hazard_check.Certified cert ->
    List.iter
      (fun rule ->
        Alcotest.(check bool)
          (file ^ ": certificate covers " ^ rule)
          true
          (List.mem rule cert.Hazard_check.c_rules))
      [ "H1"; "H2"; "H4"; "H5" ];
    Alcotest.(check int)
      (file ^ ": one region record per implemented output")
      (List.length impl.Oracle.netlist.Netlist.outputs)
      (List.length cert.Hazard_check.c_regions);
    List.iter
      (fun (rs : Hazard_check.region_stat) ->
        if rs.Hazard_check.rs_er_rise = 0 || rs.Hazard_check.rs_er_fall = 0
        then
          Alcotest.failf "%s: empty excitation region for %s" file
            rs.Hazard_check.rs_signal)
      cert.Hazard_check.c_regions;
    let json = Json.of_string (Json.to_string (Hazard_check.to_json hz)) in
    let field k = Json.to_str (Json.member k json) in
    Alcotest.(check string) (file ^ ": JSON schema tag") "mpsyn-hazard/1"
      (field "schema");
    Alcotest.(check string) (file ^ ": JSON certificate") "certified"
      (field "verdict")
  | Hazard_check.Refuted _ | Hazard_check.Abstained _ ->
    Alcotest.failf "%s: expected a certificate, got %s:@\n%a" file
      (Hazard_check.verdict_name hz) Hazard_check.pp_result hz

(* ---------------- certified skip, counter-proven ---------------- *)

(* The lock-ring family is the statically-friendliest corner of the
   suite: the A6 prescreen certifies CSC without SAT, and H1-H5 certify
   speed independence without simulation — so a verify run does zero
   solver calls and zero dynamic explorations, and the atomic counters
   prove it rather than assert it. *)
let test_lockring_skip signals () =
  let impl = impl_of (Bench_gen.lock_ring ~signals) in
  Counter.reset Counter.solver;
  Counter.reset Counter.sim;
  let rep = Oracle.certify ~skip_when_certified:true impl in
  Alcotest.(check bool) "passed" true (Oracle.passed rep);
  Alcotest.(check bool) "dynamic skipped" true (Oracle.skipped_dynamic rep);
  Alcotest.(check bool) "statically certified" true
    (Hazard_check.certified rep.Oracle.hazard);
  Alcotest.(check int) "zero dynamic explorations" 0 (Counter.get Counter.sim);
  Alcotest.(check int) "zero solver calls" 0 (Counter.get Counter.solver);
  (* forcing the dynamic path simulates — the counter moves, and both
     verdicts still agree *)
  let rep' = Oracle.certify ~skip_when_certified:false impl in
  Alcotest.(check bool) "forced dynamic passes" true (Oracle.passed rep');
  Alcotest.(check bool) "forced dynamic ran" false
    (Oracle.skipped_dynamic rep');
  Alcotest.(check bool) "simulation counted" true (Counter.get Counter.sim > 0)

(* ---------------- a real hazard is refuted, replayably ------------- *)

(* At the initial state both x+ (output) and b+ (input) are excited; the
   environment firing b+ steals x's pending transition — the classical
   output-persistency violation.  CSC still holds (codes 00, 10, 01 are
   distinct), so synthesis succeeds and produces a circuit that the
   dynamic oracle rejects; H2 must refute it statically, with a
   counterexample that replays under the gate-level semantics. *)
let steal_stg () =
  Stg_builder.(
    compile ~name:"steal" ~inputs:[ "b" ] ~outputs:[ "x" ]
      (choice
         [ seq [ plus "x"; minus "x" ]; seq [ plus "b"; minus "b" ] ]))

let test_refutation () =
  let impl = impl_of (steal_stg ()) in
  let hz = analyze_impl impl in
  (match hz.Hazard_check.verdict with
  | Hazard_check.Refuted cxs ->
    Alcotest.(check bool) "counterexamples present" true (cxs <> []);
    List.iter
      (fun (cx : Hazard_check.counterexample) ->
        Alcotest.(check bool)
          ("replays: " ^ cx.Hazard_check.cx_detail)
          true
          (Hazard_check.replay impl.Oracle.netlist cx))
      cxs;
    Alcotest.(check bool) "H2 fired" true
      (List.exists
         (fun (cx : Hazard_check.counterexample) ->
           cx.Hazard_check.cx_rule = "H2-ack")
         cxs)
  | Hazard_check.Certified _ | Hazard_check.Abstained _ ->
    Alcotest.failf "expected a refutation, got %s:@\n%a"
      (Hazard_check.verdict_name hz) Hazard_check.pp_result hz);
  (* the dynamic oracle must concur, and the report must know they agree *)
  let rep = Oracle.certify impl in
  Alcotest.(check bool) "dynamic fails too" false (Oracle.passed rep);
  Alcotest.(check bool) "static/dynamic agreement" true
    (Oracle.static_agrees rep)

(* ---------------- fuzz: static never contradicts dynamic ---------- *)

let n_fuzz = 50

let test_fuzz_agreement () =
  let rand = Random.State.make [| Qseed.seed |] in
  let synthesized = ref 0 in
  for i = 1 to n_fuzz do
    let stg = Bench_gen.random ~rand in
    match
      Mpart.synthesize
        ~config:{ Mpart.default_config with time_limit = Some 5.0 }
        stg
    with
    | exception (Mpart.Synthesis_failed _ | Sg.Inconsistent _) -> ()
    | r ->
      incr synthesized;
      let impl = Oracle.impl_of_result r in
      let rep = Oracle.certify impl in
      if not (Oracle.static_agrees rep) then
        Alcotest.failf
          "fuzz %d/%d (QCHECK_SEED=%d): static verdict %s contradicts the \
           dynamic oracle:@\n%a@\n%s"
          i n_fuzz Qseed.seed
          (Hazard_check.verdict_name rep.Oracle.hazard)
          Oracle.pp_report rep (Gformat.to_string stg);
      (match rep.Oracle.hazard.Hazard_check.verdict with
      | Hazard_check.Refuted cxs ->
        List.iter
          (fun cx ->
            if not (Hazard_check.replay impl.Oracle.netlist cx) then
              Alcotest.failf
                "fuzz %d/%d (QCHECK_SEED=%d): non-replayable counterexample \
                 escaped analyze:@\n%a"
                i n_fuzz Qseed.seed Hazard_check.pp_counterexample cx)
          cxs
      | _ -> ())
  done;
  if !synthesized < n_fuzz / 2 then
    Alcotest.failf "only %d/%d fuzz cases synthesized — generator drifted?"
      !synthesized n_fuzz

(* ---------------- CLI: exit codes and --jobs determinism ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_cli args =
  let out = Filename.temp_file "mpsyn_hazard" ".out" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> /dev/null" mpsyn args out)
  in
  let text = read_file out in
  Sys.remove out;
  (code, text)

(* Exit-code discipline (S6): a replayable static refutation is its own
   failure mode, 5 — distinct from lint rejection (3) and usage (2). *)
let test_cli_exit_codes () =
  let steal = Filename.temp_file "steal" ".g" in
  let oc = open_out steal in
  output_string oc (Gformat.to_string (steal_stg ()));
  close_out oc;
  let refused, _ = run_cli (Printf.sprintf "lint --netlist --hazard %s" steal) in
  Sys.remove steal;
  Alcotest.(check int) "refuted netlist exits 5" 5 refused;
  let ok, _ =
    run_cli
      (Printf.sprintf "lint --netlist --hazard %s"
         (Filename.concat data_dir "mr1.g"))
  in
  Alcotest.(check int) "certified netlist exits 0" 0 ok;
  let usage, _ =
    run_cli
      (Printf.sprintf "lint --hazard %s" (Filename.concat data_dir "mr1.g"))
  in
  Alcotest.(check int) "--hazard without --netlist exits 2" 2 usage

(* Diagnostic ordering under --jobs N (S1): the rendered report — plain
   and JSON — must be byte-identical however the per-file analyses were
   scheduled. *)
let test_cli_jobs_deterministic () =
  let files =
    String.concat " "
      (List.map (Filename.concat data_dir) [ "mr1.g"; "atod.g"; "vbe4a.g" ])
  in
  List.iter
    (fun fmt ->
      let c1, o1 =
        run_cli (Printf.sprintf "lint --netlist --hazard %s --jobs 1 %s" fmt files)
      in
      let c4, o4 =
        run_cli (Printf.sprintf "lint --netlist --hazard %s --jobs 4 %s" fmt files)
      in
      Alcotest.(check int) ("exit codes agree" ^ fmt) c1 c4;
      Alcotest.(check string) ("output identical" ^ fmt) o1 o4;
      Alcotest.(check bool) ("output nonempty" ^ fmt) true (o1 <> ""))
    (* --prefix merges the partial-order findings into the same report;
       the byte-identity guarantee must survive that too *)
    [ ""; "--json"; "--prefix"; "--prefix --json" ]

let () =
  Qseed.announce ();
  let files = g_files () in
  if files = [] then failwith "test_hazard: no .g files under ../data";
  Alcotest.run "hazard"
    [
      ( "benchmarks certify",
        List.map
          (fun f -> Alcotest.test_case f `Quick (test_benchmark_certifies f))
          files );
      ( "certified skip",
        [
          Alcotest.test_case "lock-ring2" `Quick (test_lockring_skip 2);
          Alcotest.test_case "lock-ring3" `Quick (test_lockring_skip 3);
          Alcotest.test_case "lock-ring5" `Quick (test_lockring_skip 5);
        ] );
      ( "refutation",
        [ Alcotest.test_case "stolen output, replayable" `Quick test_refutation ] );
      ( "static vs dynamic",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random STGs never disagree" n_fuzz)
            `Slow test_fuzz_agreement;
        ] );
      ( "cli",
        [
          Alcotest.test_case "exit codes (5/0/2)" `Quick test_cli_exit_codes;
          Alcotest.test_case "--jobs 1 = --jobs 4 output" `Quick
            test_cli_jobs_deterministic;
        ] );
    ]
