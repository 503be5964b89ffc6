(* Unit tests of the benchmark's own arithmetic: statistics, the GC block
   parser, span self time, and compare verdicts.  Expected quartiles are
   Python's statistics.quantiles(xs, n=4) on the same vectors. *)

open Bench_e2e

let close = Alcotest.float 1e-9

let test_stats () =
  let ten = List.init 10 (fun i -> float (i + 1)) in
  Alcotest.check close "median even" 5.5 (Stats.median ten);
  Alcotest.check close "median odd" 2.0 (Stats.median [ 3.; 1.; 2. ]);
  let q1, q3 = Stats.quartiles ten in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q3" 8.25 q3;
  let q1, q3 = Stats.quartiles [ 4.; 1.; 16.; 2.; 8. ] in
  Alcotest.check close "q1 of 5" 1.5 q1;
  Alcotest.check close "q3 of 5" 12.0 q3;
  (* two samples: the exclusive method extrapolates past the data *)
  let q1, q3 = Stats.quartiles [ 0.5; 0.25 ] in
  Alcotest.check close "q1 of 2" 0.1875 q1;
  Alcotest.check close "q3 of 2" 0.5625 q3;
  let q1, q3 = Stats.quartiles [ 7. ] in
  Alcotest.check close "single q1" 7. q1;
  Alcotest.check close "single q3" 7. q3;
  Alcotest.check close "geomean" 4.0 (Stats.geomean [ 4.; 1.; 16.; 2.; 8. ]);
  Alcotest.check (Alcotest.float 1e-12) "geomean 1..10" 4.528728688116765 (Stats.geomean ten)

(* Captured from `OCAMLRUNPARAM=v=0x400 mpsyn verilog data/fifo.g`. *)
let fifo_stderr =
  {|// 14 gates, ~70 transistors, max fanin 3
allocated_words: 14833534
minor_words: 14712295
promoted_words: 42368
major_words: 163607
minor_collections: 59
major_collections: 4
forced_major_collections: 0
heap_words: 218851
top_heap_words: 224830
mean_space_overhead: 93.407452
|}

let test_gc_block () =
  match Gc_block.parse fifo_stderr with
  | None -> Alcotest.fail "block not recognised"
  | Some g ->
    Alcotest.check close "allocated" 14833534. g.Gc_block.allocated_words;
    Alcotest.check close "minor" 59. g.Gc_block.minor_collections;
    Alcotest.check close "major" 4. g.Gc_block.major_collections;
    Alcotest.check close "top heap" 224830. g.Gc_block.top_heap_words;
    Alcotest.(check bool) "truncated block" true
      (Gc_block.parse "// 14 gates\nallocated_words: 1\n" = None)

let span id parent start stop =
  { Span.id; parent; name = "x"; workload = "w"; stg = "s"; start; stop; alloc_words = 0. }

let test_self_time () =
  let p = span 0 None 0. 10. in
  (* overlapping children count once; a child past the end is clipped *)
  let kids =
    [ span 1 (Some 0) 1. 3.; span 2 (Some 0) 2. 5.; span 3 (Some 0) 7. 8.; span 4 (Some 0) 9. 12. ]
  in
  Alcotest.check close "self" 4. (Span.self_time p kids);
  Alcotest.check close "leaf" 10. (Span.self_time p []);
  Alcotest.check close "duration" 3. (Span.duration (span 5 None 2. 5.));
  let spans =
    [
      { (span 6 None 0. 2.) with name = "a"; alloc_words = 5. };
      { (span 7 None 3. 4.) with name = "a"; alloc_words = 1. };
      span 8 None 0. 1.;
    ]
  in
  Alcotest.check close "total time" 3. (Span.total_time spans "a");
  Alcotest.check close "total alloc" 6. (Span.total_alloc spans "a")

let summary value q1 q3 = { Stats.value; q1; q3; n = 10 }

let verdict = Alcotest.testable (Fmt.of_to_string Verdict.to_string) ( = )

let test_judge () =
  let j = Verdict.judge ~better:`Lower ~bound:0.1 in
  let base = summary 1.0 0.99 1.01 in
  Alcotest.check verdict "same" Verdict.Same (j base (summary 1.05 1.04 1.06));
  Alcotest.check verdict "worse" Verdict.Worse (j base (summary 1.2 1.19 1.21));
  Alcotest.check verdict "better" Verdict.Better (j base (summary 0.8 0.79 0.81));
  Alcotest.check verdict "unresolved" Verdict.Unresolved (j base (summary 1.2 1.0 1.4));
  Alcotest.check verdict "higher is better" Verdict.Worse
    (Verdict.judge ~better:`Higher ~bound:0.1 base (summary 0.8 0.79 0.81));
  let exact = Verdict.judge ~better:`Lower ~bound:0. in
  Alcotest.check verdict "exact same" Verdict.Same (exact (Stats.exact 652.) (Stats.exact 652.));
  Alcotest.check verdict "exact worse" Verdict.Worse (exact (Stats.exact 652.) (Stats.exact 653.))

let bench =
  Json.of_string
    {|{"end_to_end": [
        {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "area_literals", "unit": "literals", "better": "lower", "bound": 0}]}|}

let doc pass area =
  Json.of_string
    (Printf.sprintf
       {|{"workloads": {"w1": {"metrics": {
           "pass_s": {"value": %g, "unit": "s", "q1": %g, "q3": %g, "n": 5},
           "area_literals": {"value": %d, "unit": "literals", "q1": %d, "q3": %d, "n": 1}}}}}|}
       pass (0.99 *. pass) (1.01 *. pass) area area area)

let test_compare_docs () =
  let rows a b =
    List.map
      (fun (r : Verdict.row) -> (r.metric, r.verdict))
      (Verdict.compare_docs ~bench [ a ] [ b ])
  in
  let pair = Alcotest.(list (pair string verdict)) in
  Alcotest.check pair "same" [ ("pass_s", Verdict.Same); ("area_literals", Verdict.Same) ]
    (rows (doc 1.0 652) (doc 1.02 652));
  Alcotest.check pair "slower and larger"
    [ ("pass_s", Verdict.Worse); ("area_literals", Verdict.Worse) ]
    (rows (doc 1.0 652) (doc 1.5 660));
  Alcotest.check pair "missing metric"
    [ ("pass_s", Verdict.Unresolved); ("area_literals", Verdict.Unresolved) ]
    (rows (doc 1.0 652) (Json.of_string {|{"workloads": {"w1": {"metrics": {}}}}|}));
  (* sets of runs: the run-to-run spread of the medians decides *)
  let set docs =
    List.map
      (fun (r : Verdict.row) -> (r.metric, r.verdict))
      (Verdict.compare_docs ~bench docs docs)
  in
  Alcotest.check pair "steady set" [ ("pass_s", Verdict.Same); ("area_literals", Verdict.Same) ]
    (set [ doc 1.0 652; doc 1.01 652; doc 0.99 652; doc 1.0 652 ]);
  Alcotest.check pair "noisy set"
    [ ("pass_s", Verdict.Unresolved); ("area_literals", Verdict.Same) ]
    (set [ doc 1.0 652; doc 1.5 652; doc 0.7 652; doc 1.2 652 ])

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.List [ Json.Num 1.; Json.Num 0.125; Json.Null; Json.Bool true ]);
        ("s", Json.Str "q\"uote\\ and \n newline");
      ]
  in
  Alcotest.(check bool) "round trip" true (Json.of_string (Json.to_string v) = v)

let () =
  Alcotest.run "e2e"
    [
      ( "bench-e2e",
        [
          Alcotest.test_case "median, quartiles, geomean" `Quick test_stats;
          Alcotest.test_case "GC block parse" `Quick test_gc_block;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "verdicts" `Quick test_judge;
          Alcotest.test_case "compare documents" `Quick test_compare_docs;
          Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
        ] );
    ]
