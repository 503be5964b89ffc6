(* The in-tree JSON layer (lib/json) and the writers built on it:

   - golden digests: every schema writer's document over data/*.g (plus
     a refuted and an abstained hazard verdict and a parallel-rings
     prefix certificate) matches the MD5 recorded in json_golden.txt,
     so a refactor of any writer must keep its bytes;
   - round trips: [to_string (of_string s) = s] for every golden
     document and for every row of the committed bench baseline;
   - the parser rejects malformed input with [Parse_error]. *)

let data_dir = Filename.concat ".." "data"

let steal_stg () =
  Stg_builder.(
    compile ~name:"steal" ~inputs:[ "b" ] ~outputs:[ "x" ]
      (choice [ seq [ plus "x"; minus "x" ]; seq [ plus "b"; minus "b" ] ]))

let hazard ?node_budget stg =
  let impl = Oracle.impl_of_result (Mpart.synthesize stg) in
  ( impl,
    Hazard_check.analyze ?node_budget ~expanded:impl.Oracle.expanded
      ~functions:impl.Oracle.functions impl.Oracle.netlist )

(* (writer, name, document), in json_golden.txt order *)
let documents =
  lazy
    (let per_file f =
       let name = Filename.chop_suffix f ".g" in
       let stg, map = Gformat.parse_file_spans (Filename.concat data_dir f) in
       let config = Mpart.default_config in
       let psum = Mpart.prefix_summary ~jobs:1 config stg in
       let plan = Mpart.partition_summary ~jobs:1 config stg in
       let { Lint.report; _ } = Lint.run ~map ~prefix:psum stg in
       let target = report.Diagnostic.target in
       let lint =
         Diagnostic.merge ~target
           [ report; Diagnostic.report ~target (Lint.partition ~map stg plan) ]
       in
       let impl, hz = hazard stg in
       let a7 = Lint.run_netlist impl.Oracle.netlist in
       let t = a7.Diagnostic.target in
       let netlint =
         Diagnostic.merge ~target:t
           [ a7; Diagnostic.report ~target:t hz.Hazard_check.diags ]
       in
       [
         ("lint", name, Diagnostic.to_json lint);
         ("plan", name, Partition_check.to_json plan);
         ("prefix", name, Unfold.cert_json (Unfold.build (Stg.net stg)));
         ("hazard", name, Hazard_check.to_json hz);
         ("netlint", name, Diagnostic.to_json netlint);
       ]
     in
     let files =
       Sys.readdir data_dir |> Array.to_list
       |> List.filter (fun f -> Filename.check_suffix f ".g")
       |> List.sort compare
     in
     let mr1 = Gformat.parse_file (Filename.concat data_dir "mr1.g") in
     List.concat_map per_file files
     @ [
         ("hazard", "steal", Hazard_check.to_json (snd (hazard (steal_stg ()))));
         ( "hazard",
           "mr1-budget1",
           Hazard_check.to_json (snd (hazard ~node_budget:1 mr1)) );
         ( "prefix",
           "parallel_rings-3",
           Unfold.cert_json
             (Unfold.build (Stg.net (Bench_gen.parallel_rings ~rings:3))) );
       ]
     |> List.map (fun (w, n, doc) -> (w, n, Json.to_string doc)))

let read path = In_channel.with_open_bin path In_channel.input_all
let read_lines path = String.split_on_char '\n' (read path)

let test_golden () =
  let golden =
    read_lines "json_golden.txt"
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | [ w; n; d ] -> ((w, n), d)
           | _ -> Alcotest.failf "malformed golden line %S" l)
  in
  let docs = Lazy.force documents in
  Alcotest.(check (list (pair string string)))
    "one document per golden entry" (List.map fst golden)
    (List.map (fun (w, n, _) -> (w, n)) docs);
  List.iter
    (fun (w, n, doc) ->
      let got = Digest.to_hex (Digest.string doc) in
      let want = List.assoc (w, n) golden in
      if got <> want then
        Alcotest.failf "%s %s: digest %s, golden %s; document:\n%s" w n got
          want doc)
    docs

let round_trips what s =
  match Json.of_string s with
  | v ->
    if Json.to_string v <> s then
      Alcotest.failf "%s: reprinted differently:\n%s\n%s" what s
        (Json.to_string v)
  | exception Json.Parse_error msg -> Alcotest.failf "%s: %s\n%s" what msg s

let test_round_trip_documents () =
  List.iter
    (fun (w, n, doc) -> round_trips (w ^ " " ^ n) doc)
    (Lazy.force documents)

(* The bench writes one compact row object per line; every committed
   baseline row must parse and print back to its own bytes. *)
let test_round_trip_baseline () =
  let path =
    Filename.concat ".." (Filename.concat "bench" "BENCH_baseline.json")
  in
  let rows =
    read_lines path
    |> List.map String.trim
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '{' && l <> "{")
    |> List.map (fun l ->
           let n = String.length l in
           if l.[n - 1] = ',' then String.sub l 0 (n - 1) else l)
  in
  Alcotest.(check bool) "baseline has rows" true (rows <> []);
  List.iter (round_trips "baseline row") rows;
  let doc = Json.of_string (read path) in
  Alcotest.(check int) "rows under benchmarks" (List.length rows)
    (List.length (Json.to_list (Json.member "benchmarks" doc)))

let test_escapes () =
  let s = "q\"b\\n\nt\tc\001z\127" in
  let printed = Json.to_string (Json.Str s) in
  Alcotest.(check string) "escaper" "\"q\\\"b\\\\n\\nt\\tc\\u0001z\127\"" printed;
  Alcotest.(check string) "parses back" s (Json.to_str (Json.of_string printed));
  Alcotest.(check string) "named and unicode escapes"
    "/\r\b\012\xc3\xa9\xf0\x9f\x98\x80"
    (Json.to_str (Json.of_string {|"\/\r\b\f\u00e9\ud83d\ude00"|}))

let test_values () =
  let v =
    Json.Obj
      [
        ("n", Json.int (-3));
        ("f", Json.fixed 4 0.125);
        ("l", Json.str_list [ "a"; "b" ]);
        ("o", Json.opt Json.int None);
        ("t", Json.Bool true);
        ("e", Json.List []);
        ("x", Json.Obj []);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check string) "compact"
    {|{"n":-3,"f":0.1250,"l":["a","b"],"o":null,"t":true,"e":[],"x":{}}|} s;
  let p = Json.of_string (" \n" ^ s ^ "\t\r\n") in
  Alcotest.(check int) "to_int" (-3) (Json.to_int (Json.member "n" p));
  Alcotest.(check (float 0.)) "to_float" 0.125
    (Json.to_float (Json.member "f" p));
  Alcotest.(check bool) "to_bool" true (Json.to_bool (Json.member "t" p));
  Alcotest.(check (list string)) "to_list" [ "a"; "b" ]
    (List.map Json.to_str (Json.to_list (Json.member "l" p)));
  Alcotest.(check (float 0.)) "exponent" 1.5e-3
    (Json.to_float (Json.of_string "1.5E-3"));
  let type_error f =
    match f () with
    | _ -> Alcotest.fail "expected Type_error"
    | exception Json.Type_error _ -> ()
  in
  type_error (fun () -> Json.member "missing" p);
  type_error (fun () -> Json.member "n" (Json.member "n" p));
  type_error (fun () -> Json.to_int (Json.member "f" p));
  type_error (fun () -> Json.to_str (Json.member "o" p))

let test_parse_errors () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | v -> Alcotest.failf "accepted %S as %s" bad (Json.to_string v)
      | exception Json.Parse_error _ -> ())
    [
      "";
      "  ";
      {|"unterminated|};
      {|{"a":"b|};
      {|"bad \x escape"|};
      {|"\u12g4"|};
      {|"\u12"|};
      {|"\ud83d"|};
      "\"raw\ncontrol\"";
      "\"raw\ttab\"";
      "{} x";
      "[1] [2]";
      "nulll";
      "[1,]";
      "[1 2]";
      {|{"a" 1}|};
      {|{"a":1,}|};
      {|{a:1}|};
      "01";
      "-";
      "1.";
      "1e";
      "tru";
      "'a'";
    ]

let () =
  Alcotest.run "json"
    [
      ( "writers",
        [
          Alcotest.test_case "golden digests" `Quick test_golden;
          Alcotest.test_case "documents round trip" `Quick
            test_round_trip_documents;
          Alcotest.test_case "bench baseline rows round trip" `Quick
            test_round_trip_baseline;
        ] );
      ( "json",
        [
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "values and accessors" `Quick test_values;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
        ] );
    ]
