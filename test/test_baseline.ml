(* Tests for the two Table-1 baselines: sequential insertion
   (Lavagno-style) and the direct method (Vanbekbergen-style). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let pulse_sg () =
  Sg.of_stg
    Stg_builder.(
      compile ~name:"pulse" ~inputs:[ "r" ] ~outputs:[ "a" ]
        (seq [ plus "r"; plus "a"; minus "a"; minus "r" ]))

let double_pulse_sg () =
  Sg.of_stg
    Stg_builder.(
      compile ~name:"dp" ~inputs:[ "r" ] ~outputs:[ "a"; "b" ]
        (seq
           [ plus "r"; plus "a"; minus "a"; plus "b"; minus "b"; minus "r" ]))

let test_solve_pulse () =
  let r = Sequential_insertion.solve (pulse_sg ()) in
  match r.Sequential_insertion.outcome with
  | Sequential_insertion.Solved sg ->
    check "csc satisfied" true (Csc.csc_satisfied sg);
    check_int "rounds = signals" r.Sequential_insertion.n_new
      r.Sequential_insertion.rounds;
    check "at least one formula" true
      (List.length r.Sequential_insertion.formulas >= 1)
  | Sequential_insertion.Gave_up _ -> Alcotest.fail "must solve"

let test_solve_already_clean () =
  let sg =
    Sg.of_stg
      Stg_builder.(
        compile ~name:"hs" ~inputs:[ "r" ] ~outputs:[ "a" ]
          (seq [ plus "r"; plus "a"; minus "r"; minus "a" ]))
  in
  let r = Sequential_insertion.solve sg in
  match r.Sequential_insertion.outcome with
  | Sequential_insertion.Solved sg' ->
    check "unchanged" true (Sg.n_extras sg' = 0);
    check_int "zero rounds" 0 r.Sequential_insertion.rounds
  | Sequential_insertion.Gave_up _ -> Alcotest.fail "trivial"

let test_solve_multiple_rounds () =
  let r = Sequential_insertion.solve (double_pulse_sg ()) in
  match r.Sequential_insertion.outcome with
  | Sequential_insertion.Solved sg ->
    check "csc satisfied" true (Csc.csc_satisfied sg);
    check "several formulas" true
      (List.length r.Sequential_insertion.formulas
      >= r.Sequential_insertion.n_new)
  | Sequential_insertion.Gave_up _ -> Alcotest.fail "must solve"

let test_max_rounds_abort () =
  match
    (Sequential_insertion.solve ~max_rounds:0 (pulse_sg ()))
      .Sequential_insertion.outcome
  with
  | Sequential_insertion.Gave_up _ -> ()
  | Sequential_insertion.Solved _ -> Alcotest.fail "cannot solve in 0 rounds"

let test_synthesize_end_to_end () =
  match Sequential_insertion.synthesize (double_pulse_sg ()) with
  | Either.Right _ -> Alcotest.fail "must synthesize"
  | Either.Left (expanded, fs, report) ->
    check "expanded csc" true (Csc.csc_satisfied expanded);
    check_int "implementation correct" 0 (List.length (Derive.check fs expanded));
    check "counted" true (report.Sequential_insertion.n_new >= 1)

let test_direct_end_to_end () =
  match Direct_method.synthesize (double_pulse_sg ()) with
  | Either.Right _ -> Alcotest.fail "must synthesize"
  | Either.Left (expanded, fs, report) ->
    check "expanded csc" true (Csc.csc_satisfied expanded);
    check_int "implementation correct" 0 (List.length (Derive.check fs expanded));
    check "counted" true (report.Csc_direct.n_new >= 1)

(* An abort still carries the report: the formula of the attempt that
   ran out of budget is listed. *)
let test_direct_abort_report () =
  let sg = Sg.of_stg ((Bench_suite.find "vbe4a").Bench_suite.build ()) in
  match Direct_method.synthesize ~backtrack_limit:1 sg with
  | Either.Left _ -> Alcotest.fail "cannot solve with 1 backtrack"
  | Either.Right (reason, report) ->
    check "backtrack limit" true (reason = Dpll.Backtrack_limit);
    check "formulas listed" true (report.Csc_direct.formulas <> [])

(* [mpsyn bench] prints each method's row from the same drivers Table 1
   runs: signals, states and area equal the in-process results. *)
let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

let bench_rows name =
  let ic = Unix.open_process_in (Printf.sprintf "%s bench %s" mpsyn name) in
  let rows = ref [] in
  (try
     while true do
       let line = input_line ic in
       match
         Scanf.sscanf line "%s@: %d signals, %d states, area %d"
           (fun m sig_ st area -> (m, (sig_, st, area)))
       with
       | row -> rows := row :: !rows
       | exception (Scanf.Scan_failure _ | End_of_file) -> ()
     done
   with End_of_file -> ());
  check "mpsyn bench exits 0" true (Unix.close_process_in ic = Unix.WEXITED 0);
  List.rev !rows

let test_cli_bench_matches_drivers () =
  List.iter
    (fun name ->
      let stg = (Bench_suite.find name).Bench_suite.build () in
      let sg = Sg.of_stg stg in
      let modular = Mpart.synthesize stg in
      let row (ex, fs, _) =
        (Sg.n_signals ex, Sg.n_states ex, Derive.total_literals fs)
      in
      let solved = function
        | Either.Left r -> row r
        | Either.Right _ -> Alcotest.failf "%s: baseline gave up" name
      in
      let backtrack_limit = Direct_method.backtrack_budget
      and time_limit = Direct_method.time_budget in
      let expected =
        [
          ( "modular",
            ( Mpart.final_signals modular,
              Mpart.final_states modular,
              Mpart.area_literals modular ) );
          ( "direct",
            solved (Direct_method.synthesize ~backtrack_limit ~time_limit sg) );
          ( "sequential",
            solved
              (Sequential_insertion.synthesize ~backtrack_limit ~time_limit sg)
          );
        ]
      in
      let counts = Alcotest.(triple int int int) in
      Alcotest.(check (list (pair string counts)))
        (name ^ ": signals, states, area")
        expected (bench_rows name))
    [ "vbe4a"; "nak-pa" ]

(* The comparison the paper's Table 1 embodies: the sequential baseline
   never uses fewer signals than the direct (globally optimized) method. *)
let prop_sequential_vs_direct =
  QCheck.Test.make ~name:"sequential inserts at least as many signals"
    ~count:4
    QCheck.(int_range 1 3)
    (fun stages ->
      let sg () = Sg.of_stg (Bench_gen.pipeline ~stages) in
      match
        ( (Sequential_insertion.solve (sg ())).Sequential_insertion.outcome,
          (Csc_direct.solve (sg ())).Csc_direct.outcome )
      with
      | Sequential_insertion.Solved s, Csc_direct.Solved d ->
        Sg.n_extras s >= Sg.n_extras d
      | _ -> false)

(* The output of [mpsyn ARGS] (stdout only), its exit code and its wall
   time. *)
let run_mpsyn args =
  let t0 = Unix.gettimeofday () in
  let ic = Unix.open_process_in (Printf.sprintf "%s %s 2>/dev/null" mpsyn args) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  (out, status, Unix.gettimeofday () -. t0)

(* [synth --method direct] on a net the whole-graph formula cannot solve
   in time stops at its budget with exit 1 and the abort line. *)
let test_cli_direct_budget () =
  let file = Filename.temp_file "mpsyn_pulsers" ".g" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let _, status, _ =
        run_mpsyn (Printf.sprintf "gen pulsers -k 4 > %s" (Filename.quote file))
      in
      check "gen exits 0" true (status = Unix.WEXITED 0);
      let out, status, wall =
        run_mpsyn
          (Printf.sprintf "synth --method direct --time-limit 1 %s" (Filename.quote file))
      in
      check "exits 1" true (status = Unix.WEXITED 1);
      check "prints the abort" true
        (List.mem "direct method aborted (time limit)" (String.split_on_char '\n' out));
      check (Printf.sprintf "stops within 10 s (%.1f s)" wall) true (wall < 10.))

(* [synth --help] states the baselines' default budget. *)
let test_cli_default_budget_documented () =
  let out, status, _ = run_mpsyn "synth --help=plain" in
  check "help exits 0" true (status = Unix.WEXITED 0);
  (* the help text as one line, its words single-spaced *)
  let words =
    String.split_on_char '\n' out
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (( <> ) "")
    |> String.concat " "
  in
  let has s =
    let n = String.length s in
    let rec go i = i + n <= String.length words && (String.sub words i n = s || go (i + 1)) in
    go 0
  in
  check "--time-limit names the 20 s default" true
    (has
       (Printf.sprintf
          "synth --method direct and --method sequential abort after %g s"
          Direct_method.time_budget))

(* Without [--time-limit] the baselines run under Table 1's 20 s; a
   given limit wins. *)
let test_default_budget () =
  Alcotest.(check (float 0.)) "Table 1's budget" 20.0 Direct_method.time_budget;
  Alcotest.(check (float 0.)) "no limit: the budget" 20.0
    (Direct_method.resolve_time_limit None);
  Alcotest.(check (float 0.)) "a given limit" 1.5
    (Direct_method.resolve_time_limit (Some 1.5))

let () =
  Alcotest.run "baseline"
    [
      ( "sequential insertion",
        [
          Alcotest.test_case "pulse" `Quick test_solve_pulse;
          Alcotest.test_case "already clean" `Quick test_solve_already_clean;
          Alcotest.test_case "multiple rounds" `Quick test_solve_multiple_rounds;
          Alcotest.test_case "max rounds" `Quick test_max_rounds_abort;
          Alcotest.test_case "end to end" `Quick test_synthesize_end_to_end;
        ] );
      ( "direct method",
        [
          Alcotest.test_case "end to end" `Quick test_direct_end_to_end;
          Alcotest.test_case "abort keeps the report" `Quick
            test_direct_abort_report;
        ] );
      ( "cli",
        [
          Alcotest.test_case "mpsyn bench agrees with Table 1" `Quick
            test_cli_bench_matches_drivers;
          Alcotest.test_case "direct stops at its budget" `Quick test_cli_direct_budget;
          Alcotest.test_case "help names the default budget" `Quick
            test_cli_default_budget_documented;
          Alcotest.test_case "no limit means the default budget" `Quick
            test_default_budget;
        ] );
      ("properties", [ Qseed.to_alcotest prop_sequential_vs_direct ]);
    ]
