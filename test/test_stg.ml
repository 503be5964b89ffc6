(* Tests for signals, STG structure, the .g parser/printer and the
   process combinators. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let simple_g =
  {|# four-phase handshake
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
|}

(* ---------------- Signal ---------------- *)

let test_signal_printing () =
  let names = [| "a"; "b" |] in
  check_str "rise" "a+"
    (Signal.event_to_string names { Signal.signal = 0; dir = Signal.Rise });
  check_str "fall" "b-"
    (Signal.event_to_string names { Signal.signal = 1; dir = Signal.Fall });
  check_str "toggle" "a~"
    (Signal.event_to_string names { Signal.signal = 0; dir = Signal.Toggle });
  check "non input" true (Signal.non_input Signal.Output);
  check "non input internal" true (Signal.non_input Signal.Internal);
  check "input" false (Signal.non_input Signal.Input)

(* ---------------- Parser ---------------- *)

let test_parse_simple () =
  let stg = Gformat.parse_string simple_g in
  check_str "model name" "hs" (Stg.name stg);
  check_int "signals" 2 (Stg.n_signals stg);
  check_int "transitions" 4 (Petri.n_transitions (Stg.net stg));
  check_int "places" 4 (Petri.n_places (Stg.net stg));
  check "req is input" true
    (Stg.kind stg (Stg.find_signal stg "req") = Signal.Input);
  check "ack is output" true
    (Stg.kind stg (Stg.find_signal stg "ack") = Signal.Output);
  check_int "no validation issues" 0 (List.length (Stg.validate stg))

let test_parse_marking_position () =
  let stg = Gformat.parse_string simple_g in
  let g = Reach.explore (Stg.net stg) in
  check_int "4 reachable markings" 4 (Reach.n_states g);
  check "strongly connected" true (Reach.strongly_connected g)

let test_parse_explicit_places () =
  let src =
    ".model ex\n.inputs a\n.outputs b\n.graph\np0 a+\na+ b+\nb+ p1\np1 a-\n\
     a- b-\nb- p0\n.marking { p0 }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  check_int "transitions" 4 (Petri.n_transitions (Stg.net stg));
  check_int "no issues" 0 (List.length (Stg.validate stg))

let test_parse_instances () =
  let src =
    ".model inst\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b+/2\n\
     b+/2 b-\nb- b-/2\nb-/2 a+\n.marking { <b-/2,a+> }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  check_int "six transitions" 6 (Petri.n_transitions (Stg.net stg));
  let b = Stg.find_signal stg "b" in
  check_int "four b transitions" 4 (List.length (Stg.transitions_of stg b))

let test_parse_dummy () =
  let src =
    ".model dum\n.inputs a\n.outputs b\n.dummy d\n.graph\na+ d\nd b+\n\
     b+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  let dummies =
    List.filter
      (fun t -> Stg.label stg t = Stg.Dummy)
      (List.init (Petri.n_transitions (Stg.net stg)) Fun.id)
  in
  check_int "one dummy" 1 (List.length dummies)

let test_parse_toggle () =
  let src =
    ".model tog\n.inputs a\n.outputs b\n.graph\na~ b~\nb~ a~/2\na~/2 b~/2\n\
     b~/2 a~\n.marking { <b~/2,a~> }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  check_int "four transitions" 4 (Petri.n_transitions (Stg.net stg))

let test_parse_errors () =
  List.iter
    (fun (name, src) ->
      check name true
        (try
           ignore (Gformat.parse_string src);
           false
         with Gformat.Parse_error _ -> true))
    [
      ("undeclared signal", ".model m\n.inputs a\n.graph\na+ b+\n.end\n");
      ( "double declaration",
        ".model m\n.inputs a\n.outputs a\n.graph\na+ a-\na- a+\n.end\n" );
      ("place to place", ".model m\n.inputs a\n.graph\np0 p1\n.end\n");
      ("unknown directive", ".model m\n.wibble x\n.end\n");
      ("text outside graph", ".model m\nstray tokens\n.end\n");
    ]

let test_roundtrip () =
  let stg = Gformat.parse_string simple_g in
  let printed = Gformat.to_string stg in
  let stg' = Gformat.parse_string printed in
  check_int "same transitions"
    (Petri.n_transitions (Stg.net stg))
    (Petri.n_transitions (Stg.net stg'));
  check_int "same signals" (Stg.n_signals stg) (Stg.n_signals stg');
  let n g = Reach.n_states (Reach.explore (Stg.net g)) in
  check_int "same state count" (n stg) (n stg')

let test_roundtrip_file () =
  let stg = Gformat.parse_string simple_g in
  let path = Filename.temp_file "mpsyn" ".g" in
  Gformat.write_file path stg;
  let stg' = Gformat.parse_file path in
  Sys.remove path;
  check_int "same transitions" 4 (Petri.n_transitions (Stg.net stg'))

(* ---------------- Triggers ---------------- *)

let test_triggers () =
  let stg = Gformat.parse_string simple_g in
  let ack = Stg.find_signal stg "ack" in
  let req = Stg.find_signal stg "req" in
  Alcotest.(check (list int))
    "ack triggered by req" [ req ]
    (Stg.trigger_signals stg ack)

let test_triggers_through_dummy () =
  let src =
    ".model dum\n.inputs a\n.outputs b\n.dummy d\n.graph\na+ d\nd b+\n\
     b+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  let b = Stg.find_signal stg "b" in
  let a = Stg.find_signal stg "a" in
  check "trigger seen through dummy" true
    (List.mem a (Stg.trigger_signals stg b))

(* ---------------- Builder combinators ---------------- *)

let test_builder_seq () =
  let open Stg_builder in
  let stg =
    compile ~name:"t" ~inputs:[ "a" ] ~outputs:[ "b" ]
      (seq [ plus "a"; plus "b"; minus "a"; minus "b" ])
  in
  check_int "no issues" 0 (List.length (Stg.validate stg));
  let g = Reach.explore (Stg.net stg) in
  check_int "four states" 4 (Reach.n_states g)

let test_builder_par () =
  let open Stg_builder in
  let stg =
    compile ~name:"t" ~inputs:[ "a"; "b" ] ~outputs:[]
      (par [ seq [ plus "a"; minus "a" ]; seq [ plus "b"; minus "b" ] ])
  in
  check_int "no issues" 0 (List.length (Stg.validate stg))

let test_builder_choice () =
  let open Stg_builder in
  let stg =
    compile ~name:"t" ~inputs:[ "a"; "b" ] ~outputs:[ "x" ]
      (choice
         [
           seq [ plus "a"; plus "x"; minus "a"; minus "x" ];
           seq [ plus "b"; plus "x"; minus "b"; minus "x" ];
         ])
  in
  check_int "no issues" 0 (List.length (Stg.validate stg));
  check "free choice" true (Petri.is_free_choice (Stg.net stg))

let test_builder_undeclared () =
  let open Stg_builder in
  check "undeclared raises" true
    (try
       ignore (compile ~name:"t" ~inputs:[] ~outputs:[] (plus "ghost"));
       false
     with Invalid_argument _ -> true)

let test_builder_duplicate () =
  let open Stg_builder in
  check "duplicate raises" true
    (try
       ignore (compile ~name:"t" ~inputs:[ "a" ] ~outputs:[ "a" ] (plus "a"));
       false
     with Invalid_argument _ -> true)

let test_builder_roundtrip_g () =
  let open Stg_builder in
  let stg =
    compile ~name:"rt" ~inputs:[ "r" ] ~outputs:[ "x"; "y" ]
      (seq
         [
           plus "r";
           par [ seq [ plus "x"; minus "x" ]; seq [ plus "y"; minus "y" ] ];
           minus "r";
         ])
  in
  let stg' = Gformat.parse_string (Gformat.to_string stg) in
  let n g = Reach.n_states (Reach.explore (Stg.net g)) in
  check_int "same state count" (n stg) (n stg');
  check_int "no issues" 0 (List.length (Stg.validate stg'))

(* ---------------- Composition ---------------- *)

let hs_stg name =
  Stg_builder.(
    compile ~name ~inputs:[ "r" ] ~outputs:[ "a" ]
      (seq [ plus "r"; plus "a"; minus "r"; minus "a" ]))

let test_compose_rename () =
  let stg = Stg_compose.prefix (hs_stg "hs") "left_" in
  check "renamed" true
    (try
       ignore (Stg.find_signal stg "left_r");
       true
     with Not_found -> false);
  check_int "same states" 4 (Reach.n_states (Reach.explore (Stg.net stg)))

let test_compose_rename_collision () =
  check "raises" true
    (try
       ignore (Stg_compose.rename (hs_stg "hs") (fun _ -> "same"));
       false
     with Invalid_argument _ -> true)

let test_compose_mirror () =
  let stg = hs_stg "hs" in
  let m = Stg_compose.mirror stg in
  check "r now output" true (Stg.kind m (Stg.find_signal m "r") = Signal.Output);
  check "a now input" true (Stg.kind m (Stg.find_signal m "a") = Signal.Input);
  check "involution" true
    (Stg.kind (Stg_compose.mirror m) 0 = Stg.kind stg 0)

let test_compose_hide () =
  let stg = hs_stg "hs" in
  let h = Stg_compose.hide stg ~signals:[ "a" ] in
  check "a internal" true
    (Stg.kind h (Stg.find_signal h "a") = Signal.Internal);
  check "hide input raises" true
    (try
       ignore (Stg_compose.hide stg ~signals:[ "r" ]);
       false
     with Invalid_argument _ -> true);
  check "hide unknown raises" true
    (try
       ignore (Stg_compose.hide stg ~signals:[ "zz" ]);
       false
     with Invalid_argument _ -> true)

let test_compose_parallel () =
  let a = Stg_compose.prefix (hs_stg "hs") "l_" in
  let b = Stg_compose.prefix (hs_stg "hs") "r_" in
  let p = Stg_compose.parallel a b in
  check_int "signals sum" 4 (Stg.n_signals p);
  check_int "product state space" 16 (Reach.n_states (Reach.explore (Stg.net p)));
  check_int "still valid" 0 (List.length (Stg.validate p));
  (* the composition synthesizes like any other STG *)
  let sg = Sg.of_stg p in
  check "consistent codes" true (Sg.n_states sg = 16)

let test_compose_parallel_shared () =
  check "shared signal raises" true
    (try
       ignore (Stg_compose.parallel (hs_stg "a") (hs_stg "b"));
       false
     with Invalid_argument _ -> true)

(* ---------------- Properties ---------------- *)

let gen_proc =
  let open QCheck.Gen in
  let signals = [ "s0"; "s1"; "s2"; "s3" ] in
  let frag =
    oneof
      [
        map
          (fun i ->
            let s = List.nth signals (i mod 4) in
            Stg_builder.(seq [ plus s; minus s ]))
          (int_range 0 3);
        map
          (fun i ->
            let s = List.nth signals (i mod 4) in
            let s' = List.nth signals ((i + 1) mod 4) in
            Stg_builder.(seq [ plus s; plus s'; minus s'; minus s ]))
          (int_range 0 3);
      ]
  in
  let rec proc depth =
    if depth = 0 then frag
    else
      oneof
        [
          frag;
          map
            (fun ps -> Stg_builder.seq ps)
            (list_size (int_range 1 3) (proc (depth - 1)));
          map
            (fun ps -> Stg_builder.par ps)
            (list_size (int_range 1 2) (proc (depth - 1)));
        ]
  in
  proc 2

(* Random processes may nest a signal concurrently with itself, which is
   not 1-safe; those must be *reported* by validation, never crash.  When
   validation passes, the state graph must derive. *)
let prop_builder_valid =
  QCheck.Test.make ~name:"compiled processes validate or derive" ~count:60
    (QCheck.make gen_proc) (fun p ->
      let stg =
        Stg_builder.compile ~name:"q" ~inputs:[ "s0"; "s1"; "s2"; "s3" ]
          ~outputs:[] p
      in
      (* A 1-safe net can still be signal-inconsistent (e.g. the same
         signal pulsed on two concurrent branches): validation passes but
         derivation must reject it with Inconsistent, never crash. *)
      try
        match Stg.validate stg with
        | [] -> Sg.n_states (Sg.of_stg stg) > 0
        | _ :: _ -> true
      with Sg.Inconsistent _ -> true)

(* The same processes through [Sg.of_stg] and [Sg_ref], the builder that
   solved the assignment one signal at a time: equal digests, or the
   same [Inconsistent] message byte for byte on every reject.  Nets
   that fail validation (not 1-safe) are explored too, under a small
   state cap; at the pinned seed about a quarter of the processes are
   rejected. *)
let prop_builder_reference =
  QCheck.Test.make ~name:"derivation = per-signal reference"
    ~count:(60 * Qseed.soak) (QCheck.make gen_proc) (fun p ->
      let stg =
        Stg_builder.compile ~name:"q" ~inputs:[ "s0"; "s1"; "s2"; "s3" ]
          ~outputs:[] p
      in
      let outcome build =
        match build ~max_states:4096 stg with
        | sg -> Ok (Sg.digest sg)
        | exception Sg.Inconsistent msg -> Error msg
        | exception Reach.Too_many_states _ -> Error "state cap"
      in
      outcome (fun ~max_states stg -> Sg.of_stg ~max_states ~backend:`Explicit stg)
      = outcome (fun ~max_states stg -> Sg_ref.of_stg ~max_states stg))

let () =
  Alcotest.run "stg"
    [
      ("signal", [ Alcotest.test_case "printing" `Quick test_signal_printing ]);
      ( "parser",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "marking" `Quick test_parse_marking_position;
          Alcotest.test_case "explicit places" `Quick test_parse_explicit_places;
          Alcotest.test_case "instances" `Quick test_parse_instances;
          Alcotest.test_case "dummy" `Quick test_parse_dummy;
          Alcotest.test_case "toggle" `Quick test_parse_toggle;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "roundtrip file" `Quick test_roundtrip_file;
        ] );
      ( "triggers",
        [
          Alcotest.test_case "direct" `Quick test_triggers;
          Alcotest.test_case "through dummy" `Quick test_triggers_through_dummy;
        ] );
      ( "builder",
        [
          Alcotest.test_case "seq" `Quick test_builder_seq;
          Alcotest.test_case "par" `Quick test_builder_par;
          Alcotest.test_case "choice" `Quick test_builder_choice;
          Alcotest.test_case "undeclared" `Quick test_builder_undeclared;
          Alcotest.test_case "duplicate" `Quick test_builder_duplicate;
          Alcotest.test_case "g roundtrip" `Quick test_builder_roundtrip_g;
        ] );
      ( "composition",
        [
          Alcotest.test_case "rename" `Quick test_compose_rename;
          Alcotest.test_case "rename collision" `Quick
            test_compose_rename_collision;
          Alcotest.test_case "mirror" `Quick test_compose_mirror;
          Alcotest.test_case "hide" `Quick test_compose_hide;
          Alcotest.test_case "parallel" `Quick test_compose_parallel;
          Alcotest.test_case "parallel shared" `Quick
            test_compose_parallel_shared;
        ] );
      ( "properties",
        [
          Qseed.to_alcotest prop_builder_valid;
          Qseed.to_alcotest prop_builder_reference;
        ] );
    ]
