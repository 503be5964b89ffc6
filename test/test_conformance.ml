(* The tentpole as a tier-1 gate: every shipped benchmark must
   synthesize into a netlist that passes the conformance oracle, and
   random STGs must synthesize identically-correctly under every solver
   backend (differential fuzzing).  See lib/verify for the oracle. *)

let data_dir = Filename.concat ".." "data"

let g_files () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare

(* ---------------- shipped benchmarks ---------------- *)

let test_benchmark file () =
  let stg = Gformat.parse_file (Filename.concat data_dir file) in
  let r = Mpart.synthesize stg in
  let report = Oracle.certify (Oracle.impl_of_result r) in
  if not (Oracle.passed report) then
    Alcotest.failf "%s:@\n%a" file Oracle.pp_report report

(* ---------------- differential fuzzing ---------------- *)

(* 50 random STGs, every backend (walksat, dpll, bdd, direct) on each:
   the three modular backends must agree on solvability and every
   produced circuit must pass the oracle; the whole-graph direct
   baseline may abstain on its time budget (that scaling gap is the
   paper's point) but must be correct whenever it answers. *)
let n_fuzz = 50

let test_differential_fuzz () =
  let rand = Random.State.make [| Qseed.seed |] in
  for i = 1 to n_fuzz do
    let stg = Bench_gen.random ~rand in
    let d = Oracle.differential_one ~time_limit:2.0 stg in
    if not d.Oracle.ok then
      Alcotest.failf "fuzz case %d/%d (QCHECK_SEED=%d):@\n%a@\n%s" i n_fuzz
        Qseed.seed Oracle.pp_differential d (Gformat.to_string stg)
  done

(* ---------------- netlist compilation checks ---------------- *)

(* [Gatesim.of_netlist] refuses a netlist it could not evaluate: a gate
   reading a wire nothing drives, an output without a driving gate, and
   more boundary wires than a mask holds. *)
let test_of_netlist_rejects () =
  let rejects what (nl : Netlist.t) =
    match Gatesim.of_netlist nl with
    | _ -> Alcotest.failf "%s: of_netlist must refuse the netlist" what
    | exception Invalid_argument _ -> ()
  in
  let nl ?(inputs = [ "a" ]) outputs gates =
    { Netlist.name = "t"; inputs; outputs; gates }
  in
  let gate out input = Netlist.Wire { out; input } in
  ignore (Gatesim.of_netlist (nl [ "b" ] [ gate "b" "a" ]) : Gatesim.t);
  rejects "undriven wire" (nl [ "b" ] [ gate "b" "x" ]);
  rejects "undriven output" (nl [ "b"; "c" ] [ gate "b" "a" ]);
  let inputs = List.init 62 (Printf.sprintf "i%d") in
  rejects "63 boundary wires" (nl ~inputs [ "b" ] [ gate "b" "i0" ])

let () =
  Qseed.announce ();
  let files = g_files () in
  if files = [] then failwith "test_conformance: no .g files under ../data";
  Alcotest.run "conformance"
    [
      ( "benchmarks",
        List.map
          (fun f -> Alcotest.test_case f `Quick (test_benchmark f))
          files );
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random STGs x 4 backends" n_fuzz)
            `Slow test_differential_fuzz;
        ] );
      ( "gatesim",
        [
          Alcotest.test_case "of_netlist rejects" `Quick
            test_of_netlist_rejects;
        ] );
    ]
