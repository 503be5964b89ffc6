(* The symbolic engine's whole contract is byte-identity: the
   partitioned-transition-relation fixpoint plus canonical onset
   enumeration must rebuild exactly the graph the explicit sweep
   enumerates, on every shipped benchmark and on fuzzed STGs, so the
   digests downstream can never tell which engine ran.  The remaining
   tests pin the safety-fallback and cap-parity edges of that contract,
   and the allocation profile of the precomputed Sg adjacency. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let data_dir = Filename.concat ".." "data"

let g_files () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare

(* ---------------- digest identity: shipped benchmarks ---------------- *)

let test_benchmark_digest file () =
  let stg = Gformat.parse_file (Filename.concat data_dir file) in
  let explicit = Sg.of_stg stg in
  let before = Counter.get Counter.symbolic in
  let symbolic = Sg.of_stg ~backend:`Symbolic stg in
  Alcotest.(check string)
    "digest agrees" (Sg.digest explicit) (Sg.digest symbolic);
  check "took the symbolic path" true (Counter.get Counter.symbolic > before)

(* ---------------- digest identity: fuzzed STGs ---------------- *)

let n_fuzz = 50

let test_fuzz_digest () =
  let rand = Random.State.make [| Qseed.seed |] in
  for i = 1 to n_fuzz do
    let stg = Bench_gen.random ~rand in
    let explicit = Sg.of_stg stg in
    let symbolic = Sg.of_stg ~backend:`Symbolic stg in
    if Sg.digest explicit <> Sg.digest symbolic then
      Alcotest.failf "fuzz case %d/%d (QCHECK_SEED=%d): digests diverge@\n%s" i
        n_fuzz Qseed.seed (Gformat.to_string stg)
  done

(* The raw reachability graphs agree field-for-field, not just after
   state-graph derivation: numbering, edge order, adjacency lists. *)
let test_reach_identity () =
  let stg = Stg.net (Bench_gen.parallel_rings ~rings:3) in
  let a = Reach.explore stg in
  let b = Symbolic.explore stg in
  check_int "states" (Reach.n_states a) (Reach.n_states b);
  check "markings" true
    (Array.for_all2 Marking.equal a.Reach.markings b.Reach.markings);
  check "edges" true (a.Reach.edges = b.Reach.edges);
  check "succ" true (a.Reach.succ = b.Reach.succ);
  check "pred" true (a.Reach.pred = b.Reach.pred)

(* ---------------- fallback edges of the contract ---------------- *)

(* q -> t -> p with both p and q initially marked: firing t re-marks p,
   so the boolean encoding would lie; the engine must detect it on the
   fixpoint and hand over to the explicit sweep. *)
let unsafe_net () =
  let b = Petri.Builder.create () in
  let p = Petri.Builder.add_place b ~name:"p" ~tokens:1 in
  let q = Petri.Builder.add_place b ~name:"q" ~tokens:1 in
  let t = Petri.Builder.add_transition b ~name:"t" in
  Petri.Builder.arc_pt b q t;
  Petri.Builder.arc_tp b t p;
  Petri.Builder.build b

let test_unsafe_fallback () =
  let net = unsafe_net () in
  let g, info = Symbolic.explore_info net in
  check "fell back" false info.Symbolic.i_symbolic;
  check "reason recorded" true (info.Symbolic.i_fallback <> None);
  let e = Reach.explore net in
  check_int "states agree with explicit" (Reach.n_states e) (Reach.n_states g);
  check "markings agree" true
    (Array.for_all2 Marking.equal e.Reach.markings g.Reach.markings)

let test_unsafe_initial_fallback () =
  let b = Petri.Builder.create () in
  let _p = Petri.Builder.add_place b ~name:"p" ~tokens:2 in
  let _t = Petri.Builder.add_transition b ~name:"t" in
  let net = Petri.Builder.build b in
  let _, info = Symbolic.explore_info net in
  check "fell back" false info.Symbolic.i_symbolic

(* Exceeding the cap must raise the same typed exception with the same
   budget, even though the symbolic engine knows the exact count before
   enumerating anything. *)
let test_cap_parity () =
  let net = Stg.net (Bench_gen.parallel_rings ~rings:4) in
  let expect f =
    match f () with
    | exception Reach.Too_many_states n -> n
    | _ -> Alcotest.fail "expected Too_many_states"
  in
  check_int "explicit cap" 100 (expect (fun () -> Reach.explore ~max_states:100 net));
  check_int "symbolic cap" 100
    (expect (fun () -> Symbolic.explore ~max_states:100 net));
  (* at the exact count, neither raises *)
  let n = Reach.n_states (Reach.explore net) in
  check_int "exact budget ok" n
    (Reach.n_states (Symbolic.explore ~max_states:n net))

(* ---------------- clustering sanity ---------------- *)

let test_clustering_partitions () =
  let net = Stg.net (Bench_gen.parallel_rings ~rings:4) in
  let enc = Symenc.make net in
  let groups = Symrel.plan enc ~cluster_max:Symrel.default_cluster_max in
  let members = List.concat_map fst groups in
  check_int "every transition in exactly one cluster"
    (Petri.n_transitions net) (List.length members);
  check "transition ids partitioned" true
    (List.sort_uniq Int.compare members = List.init (Petri.n_transitions net) Fun.id);
  List.iter
    (fun (_, support) ->
      check "support within cap" true
        (List.length support <= Symrel.default_cluster_max
        || List.length support <= Symenc.max_places))
    groups

(* ---------------- Sg adjacency allocation profile ---------------- *)

(* [Sg.succ]/[Sg.pred] used to rebuild their edge lists on every call;
   they now serve lists resolved once at construction, so a sweep over
   every state allocates nothing. *)
let test_adjacency_no_allocation () =
  let stg = Gformat.parse_file (Filename.concat data_dir "mr0.g") in
  let sg = Sg.of_stg stg in
  let n = Sg.n_states sg in
  let sweep () =
    for m = 0 to n - 1 do
      ignore (Sg.succ sg m : Sg.edge list);
      ignore (Sg.pred sg m : Sg.edge list)
    done
  in
  sweep ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to 100 do
    sweep ()
  done;
  let after = Gc.allocated_bytes () in
  check "no per-call allocation" true (after -. before < 1024.0)

(* ---------------- Auto engine selection in Mpart ---------------- *)

(* parallel_rings 5 has 3126 states: its exact U4 prefix bound crosses
   [Mpart.engine_threshold], so a plain [synthesize] must take the BDD
   path — counter-proven — while parallel_rings 3 (126 states) stays on
   the explicit sweep. *)
let test_auto_reach () =
  let before = Counter.get Counter.symbolic in
  let r = Mpart.synthesize (Bench_gen.parallel_rings ~rings:5) in
  check "U4 bound picked the symbolic engine" true
    (Counter.get Counter.symbolic > before);
  check "verifies" true (Mpart.verify r = None);
  let before = Counter.get Counter.symbolic in
  let _ = Mpart.synthesize (Bench_gen.parallel_rings ~rings:3) in
  check_int "a small net keeps the explicit sweep" before
    (Counter.get Counter.symbolic)

(* The partition plan takes its engine from the same decision. *)
let test_partition_reach () =
  let before = Counter.get Counter.symbolic in
  let _ =
    Mpart.partition_summary Mpart.default_config
      (Bench_gen.parallel_rings ~rings:5)
  in
  check "partition plan took the symbolic engine" true
    (Counter.get Counter.symbolic > before)

(* ---------------- CLI: exit code 6 ---------------- *)

let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_cli args =
  let out = Filename.temp_file "mpsyn_symbolic" ".out" in
  let err = Filename.temp_file "mpsyn_symbolic" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> %s" mpsyn args out err)
  in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

let mem_sub hay needle =
  let h = String.length hay and n = String.length needle in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Exceeding the default reachability cap must exit with the documented
   code 6 and put the budget in the message, per the README exit-code
   table — not crash with an uncaught exception (125). *)
let test_cli_budget_exit () =
  let g = Filename.temp_file "mpsyn_rings8" ".g" in
  let oc = open_out g in
  output_string oc (Gformat.to_string (Bench_gen.parallel_rings ~rings:8));
  close_out oc;
  let code, _, stderr = run_cli (Printf.sprintf "dot %s" g) in
  Sys.remove g;
  check_int "budget exhaustion exits 6" 6 code;
  check "message names the exhausted budget" true
    (mem_sub stderr "state budget exhausted" && mem_sub stderr "100000")

let () =
  let benchmark_cases =
    List.map
      (fun f -> Alcotest.test_case f `Quick (test_benchmark_digest f))
      (g_files ())
  in
  Alcotest.run "symbolic"
    [
      ("digest-identity", benchmark_cases);
      ( "fuzz",
        [
          Alcotest.test_case "50 random STGs" `Slow test_fuzz_digest;
          Alcotest.test_case "reach fields identical" `Quick
            test_reach_identity;
        ] );
      ( "fallback",
        [
          Alcotest.test_case "unsafe fire" `Quick test_unsafe_fallback;
          Alcotest.test_case "unsafe initial marking" `Quick
            test_unsafe_initial_fallback;
          Alcotest.test_case "cap parity" `Quick test_cap_parity;
        ] );
      ( "clustering",
        [ Alcotest.test_case "partition of transitions" `Quick
            test_clustering_partitions ] );
      ( "adjacency",
        [ Alcotest.test_case "no per-call allocation" `Quick
            test_adjacency_no_allocation ] );
      ( "auto",
        [
          Alcotest.test_case "U4 bound flips the engine" `Quick test_auto_reach;
          Alcotest.test_case "partition plan follows the flip" `Quick
            test_partition_reach;
        ] );
      ( "cli",
        [
          Alcotest.test_case "budget exhaustion exits 6" `Quick
            test_cli_budget_exit;
        ] );
    ]
