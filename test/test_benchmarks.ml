(* Tests for the benchmark reconstructions and the scalable generators:
   every STG must be live, 1-safe, consistent, and carry the CSC
   conflicts the synthesis flow exists to resolve. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_registry_complete () =
  check_int "23 benchmarks" 23 (List.length Bench_suite.all);
  List.iter
    (fun name ->
      check ("find " ^ name) true
        (try
           ignore (Bench_suite.find name);
           true
         with Not_found -> false))
    Bench_suite.names

let test_all_valid () =
  List.iter
    (fun (e : Bench_suite.entry) ->
      let stg = e.Bench_suite.build () in
      let issues = Stg.validate stg in
      Alcotest.(check (list string))
        (e.Bench_suite.name ^ " validates")
        []
        (List.map (Format.asprintf "%a" (Stg.pp_issue stg)) issues))
    Bench_suite.all

let test_all_consistent () =
  List.iter
    (fun (e : Bench_suite.entry) ->
      let sg = Sg.of_stg (e.Bench_suite.build ()) in
      check (e.Bench_suite.name ^ " has states") true (Sg.n_states sg > 0))
    Bench_suite.all

let test_signal_counts_match_paper () =
  List.iter
    (fun (e : Bench_suite.entry) ->
      let stg = e.Bench_suite.build () in
      check_int
        (e.Bench_suite.name ^ " signal count")
        e.Bench_suite.paper.Bench_suite.initial_signals
        (Stg.n_signals stg))
    Bench_suite.all

let test_state_counts_same_order () =
  (* reconstructions must stay within a factor of two of Table 1 *)
  List.iter
    (fun (e : Bench_suite.entry) ->
      let sg = Sg.of_stg (e.Bench_suite.build ()) in
      let paper = e.Bench_suite.paper.Bench_suite.initial_states in
      let ours = Sg.n_states sg in
      check
        (Printf.sprintf "%s states %d vs paper %d" e.Bench_suite.name ours
           paper)
        true
        (ours * 2 >= paper && ours <= paper * 2))
    Bench_suite.all

let test_all_have_conflicts () =
  (* every Table-1 benchmark needed at least one state signal *)
  List.iter
    (fun (e : Bench_suite.entry) ->
      let sg = Sg.of_stg (e.Bench_suite.build ()) in
      check (e.Bench_suite.name ^ " has conflicts") true (Csc.n_conflicts sg > 0))
    Bench_suite.all

let test_alex_nonfc_is_nonfc () =
  let stg = (Bench_suite.find "alex-nonfc").Bench_suite.build () in
  check "not free choice" false (Petri.is_free_choice (Stg.net stg))

let test_others_parse_as_g () =
  (* every reconstruction survives a .g round trip *)
  List.iter
    (fun (e : Bench_suite.entry) ->
      let stg = e.Bench_suite.build () in
      let stg' = Gformat.parse_string (Gformat.to_string stg) in
      let n g = Reach.n_states (Reach.explore (Stg.net g)) in
      check_int (e.Bench_suite.name ^ " roundtrip") (n stg) (n stg'))
    Bench_suite.all

(* The registry is the data: one Table-1 row per data/*.g file, and a
   builtin name prints the bytes its file prints. *)
let data_dir = Filename.concat ".." "data"

let test_registry_is_data () =
  let files =
    Sys.readdir data_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
    |> List.map Filename.chop_extension
  in
  Alcotest.(check (list string))
    "Table-1 names = data/*.g basenames" (List.sort compare files)
    (List.sort compare Bench_suite.names)

let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

let cli args =
  let ic = Unix.open_process_in (mpsyn ^ " " ^ args ^ " 2> /dev/null") in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "mpsyn %s failed" args

let test_name_prints_file () =
  List.iter
    (fun name ->
      let file = Filename.quote (Filename.concat data_dir (name ^ ".g")) in
      List.iter
        (fun cmd ->
          Alcotest.(check string)
            (Printf.sprintf "mpsyn %s %s" cmd name)
            (cli (cmd ^ " " ^ file))
            (cli (cmd ^ " " ^ Filename.quote name)))
        [ "verilog"; "dot"; "info" ])
    Bench_suite.names

(* ---------------- Generators ---------------- *)

let test_pipeline_growth () =
  let states n = Sg.n_states (Sg.of_stg (Bench_gen.pipeline ~stages:n)) in
  check "monotone" true (states 1 < states 2 && states 2 < states 4);
  (* linear family: roughly 4 states per stage *)
  check_int "stage count" (4 * 3) (states 3)

let test_pulsers_growth () =
  let states k =
    Sg.n_states (Sg.of_stg (Bench_gen.concurrent_pulsers ~branches:k))
  in
  (* exponential family *)
  check "superlinear" true (states 3 > 3 * states 1)

let test_generated_valid () =
  List.iter
    (fun stg ->
      Alcotest.(check (list string))
        (Stg.name stg ^ " validates")
        []
        (List.map (Format.asprintf "%a" (Stg.pp_issue stg)) (Stg.validate stg)))
    [
      Bench_gen.pipeline ~stages:3;
      Bench_gen.concurrent_pulsers ~branches:3;
      Bench_gen.mixed ~stages:2 ~branches:2;
    ]

let test_generated_conflicts () =
  List.iter
    (fun stg ->
      check (Stg.name stg ^ " has conflicts") true
        (Csc.n_conflicts (Sg.of_stg stg) > 0))
    [
      Bench_gen.pipeline ~stages:1;
      Bench_gen.concurrent_pulsers ~branches:2;
      Bench_gen.mixed ~stages:2 ~branches:2;
    ]

let test_generator_bounds () =
  List.iter
    (fun f -> check "rejects" true (try f (); false with Invalid_argument _ -> true))
    [
      (fun () -> ignore (Bench_gen.pipeline ~stages:0));
      (fun () -> ignore (Bench_gen.concurrent_pulsers ~branches:0));
      (fun () -> ignore (Bench_gen.concurrent_pulsers ~branches:9));
      (fun () -> ignore (Bench_gen.mixed ~stages:0 ~branches:1));
    ]

let () =
  Alcotest.run "benchmarks"
    [
      ( "registry",
        [
          Alcotest.test_case "complete" `Quick test_registry_complete;
          Alcotest.test_case "valid" `Quick test_all_valid;
          Alcotest.test_case "consistent" `Quick test_all_consistent;
          Alcotest.test_case "signal counts" `Quick
            test_signal_counts_match_paper;
          Alcotest.test_case "state counts" `Quick
            test_state_counts_same_order;
          Alcotest.test_case "conflicts present" `Quick test_all_have_conflicts;
          Alcotest.test_case "alex-nonfc" `Quick test_alex_nonfc_is_nonfc;
          Alcotest.test_case "g roundtrip" `Quick test_others_parse_as_g;
          Alcotest.test_case "names are data/*.g" `Quick test_registry_is_data;
          Alcotest.test_case "name prints its file" `Quick
            test_name_prints_file;
        ] );
      ( "generators",
        [
          Alcotest.test_case "pipeline growth" `Quick test_pipeline_growth;
          Alcotest.test_case "pulsers growth" `Quick test_pulsers_growth;
          Alcotest.test_case "generated valid" `Quick test_generated_valid;
          Alcotest.test_case "generated conflicts" `Quick
            test_generated_conflicts;
          Alcotest.test_case "bounds" `Quick test_generator_bounds;
        ] );
    ]
