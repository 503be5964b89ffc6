(* Determinism of the parallel engine: --jobs must never change the
   answer.  For every shipped benchmark and for a batch of fuzzed STGs,
   the netlist synthesized at jobs=1 (the historical sequential path)
   must equal, gate for gate, the netlist synthesized at jobs=4 — the
   invalidate-and-recompute pipeline is exactly what makes this hold. *)

let data_dir = Filename.concat ".." "data"

let g_files () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare

let verilog stg (r : Mpart.result) =
  let inputs = List.map (Stg.signal_name stg) (Stg.inputs stg) in
  Netlist.to_verilog
    (Netlist.of_functions ~name:(Stg.name stg) ~inputs r.Mpart.functions)

let synth ~jobs stg =
  Mpart.synthesize ~config:{ Mpart.default_config with jobs } stg

(* Gate-for-gate comparison plus the cheap structural columns, so a
   mismatch names what diverged instead of dumping two netlists. *)
let check_identical label stg =
  let r1 = synth ~jobs:1 stg in
  let r4 = synth ~jobs:4 stg in
  Alcotest.(check int)
    (label ^ ": final states") (Mpart.final_states r1)
    (Mpart.final_states r4);
  Alcotest.(check int)
    (label ^ ": area") (Mpart.area_literals r1)
    (Mpart.area_literals r4);
  let v1 = verilog stg r1 and v4 = verilog stg r4 in
  if v1 <> v4 then
    Alcotest.failf "%s: jobs=1 and jobs=4 netlists differ:@\n--- jobs=1\n%s\n--- jobs=4\n%s"
      label v1 v4

let test_benchmark file () =
  check_identical file (Gformat.parse_file (Filename.concat data_dir file))

let n_fuzz = 25

let test_fuzzed () =
  let rand = Random.State.make [| Qseed.seed |] in
  for i = 1 to n_fuzz do
    let stg = Bench_gen.random ~rand in
    try check_identical (Printf.sprintf "fuzz %d/%d" i n_fuzz) stg
    with
    | Mpart.Synthesis_failed _ | Sg.Inconsistent _ ->
      (* not synthesizable either way: fine, both paths agree by
         construction (jobs only parallelizes read-only analyses) *)
      ()
  done

let () =
  Qseed.announce ();
  let files = g_files () in
  if files = [] then failwith "test_parallel: no .g files under ../data";
  Alcotest.run "parallel"
    [
      ( "jobs=1 vs jobs=4, shipped benchmarks",
        List.map
          (fun f -> Alcotest.test_case f `Quick (test_benchmark f))
          files );
      ( "jobs=1 vs jobs=4, fuzzed",
        [ Alcotest.test_case "25 random STGs" `Slow test_fuzzed ] );
    ]
