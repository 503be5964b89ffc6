(* Netlist golden: the MD5 of [Netlist.to_verilog] — the bytes
   [mpsyn verilog] prints — for every data/*.g net and for three
   generated nets with large expanded graphs.  Logic derivation, support
   reduction and region minimization decide those bytes, so a rewrite of
   any of them must keep every digest in netlist_golden.txt.  The CLI
   must print the same bytes with MPSYN_JOBS at 2 and 4: synthesis runs
   on one domain whatever the pool width. *)

let data_dir = Filename.concat ".." "data"

let verilog stg =
  let r = Mpart.synthesize stg in
  let inputs = List.map (Stg.signal_name stg) (Stg.inputs stg) in
  Netlist.to_verilog
    (Netlist.of_functions ~name:(Stg.name stg) ~inputs r.Mpart.functions)

(* (name, net), in netlist_golden.txt order *)
let nets () =
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
      ("pulsers-5", fun () -> Bench_gen.concurrent_pulsers ~branches:5);
      ("mixed-3x3", fun () -> Bench_gen.mixed ~stages:3 ~branches:3);
      ("parallel_rings-5", fun () -> Bench_gen.parallel_rings ~rings:5);
    ]

let golden () =
  In_channel.with_open_bin "netlist_golden.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (( <> ) "")
  |> List.map (fun l ->
         match String.split_on_char ' ' l with
         | [ n; d ] -> (n, d)
         | _ -> Alcotest.failf "malformed golden line %S" l)

let test_golden () =
  let golden = golden () and nets = nets () in
  Alcotest.(check (list string))
    "one net per golden entry" (List.map fst golden) (List.map fst nets);
  List.iter
    (fun (n, stg) ->
      let v = verilog (stg ()) in
      let got = Digest.to_hex (Digest.string v) in
      let want = List.assoc n golden in
      if got <> want then
        Alcotest.failf "%s: digest %s, golden %s; netlist:\n%s" n got want v)
    nets

let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

let cli_digest ~jobs file =
  let ic =
    Unix.open_process_in
      (Printf.sprintf "MPSYN_JOBS=%d %s verilog %s 2> /dev/null" jobs mpsyn
         (Filename.quote file))
  in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> Digest.to_hex (Digest.string out)
  | _ -> Alcotest.failf "MPSYN_JOBS=%d mpsyn verilog %s failed" jobs file

let test_cli_jobs () =
  let golden = golden () in
  List.iter
    (fun (n, want) ->
      let file = Filename.concat data_dir (n ^ ".g") in
      if Sys.file_exists file then
        List.iter
          (fun jobs ->
            let got = cli_digest ~jobs file in
            if got <> want then
              Alcotest.failf "%s at MPSYN_JOBS=%d: digest %s, golden %s" n
                jobs got want)
          [ 2; 4 ])
    golden

let () =
  Alcotest.run "netlist"
    [
      ( "golden",
        [
          Alcotest.test_case "verilog digests" `Quick test_golden;
          Alcotest.test_case "CLI at --jobs 2 and 4" `Quick test_cli_jobs;
        ] );
    ]
