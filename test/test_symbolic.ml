(* The bitmask sweep's whole contract is byte-identity: it must list
   exactly the edges the explicit sweep enumerates, on every shipped
   benchmark and on fuzzed STGs, so the digests downstream can never
   tell which sweep ran.  A mask bit is a place id, so the same holds
   under any renumbering of the places.  The remaining tests pin the
   safety-fallback and cap-parity edges of that contract, the one sweep
   per Σ, and the allocation profile of the precomputed Sg adjacency. *)

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
  let explicit = Sg.of_stg ~backend:`Explicit stg in
  check "encodable" true (Symenc.unsupported (Stg.net stg) = None);
  let before = Counter.get Counter.reach in
  let swept = Sg.of_stg stg in
  Alcotest.(check string)
    "digest agrees" (Sg.digest explicit) (Sg.digest swept);
  check_int "one sweep" (before + 1) (Counter.get Counter.reach)

(* ---------------- digest identity: fuzzed STGs ---------------- *)

let n_fuzz = 50

let test_fuzz_digest () =
  let rand = Random.State.make [| Qseed.seed |] in
  for i = 1 to n_fuzz do
    let stg = Bench_gen.random ~rand in
    let explicit = Sg.of_stg ~backend:`Explicit stg in
    let swept = Sg.of_stg stg in
    if Sg.digest explicit <> Sg.digest swept then
      Alcotest.failf "fuzz case %d/%d (QCHECK_SEED=%d): digests diverge@\n%s" i
        n_fuzz Qseed.seed (Gformat.to_string stg)
  done

(* [(n_states, edge buffer, n_edges)] of an exploration, the buffer cut
   to its [3 * n_edges] used cells. *)
let used (n, buf, n_edges) = (n, Array.sub buf 0 (3 * n_edges), n_edges)

let explicit_edges ?max_states net =
  let g = Reach.explore ?max_states net in
  (Reach.n_states g, g.Reach.edges, Reach.n_edges g)

let check_same_edges what a b =
  let n, buf, n_edges = used a and n', buf', n_edges' = used b in
  check_int (what ^ ": states") n n';
  check_int (what ^ ": edges") n_edges n_edges';
  check (what ^ ": edge buffer") true (buf = buf')

(* The raw reachability graphs agree, not just after state-graph
   derivation: numbering and edge order. *)
let test_reach_identity () =
  let net = Stg.net (Bench_gen.parallel_rings ~rings:3) in
  check "encodable" true (Symenc.unsupported net = None);
  check_same_edges "parallel_rings-3" (explicit_edges net)
    (Symbolic.explore_edges net)

(* ---------------- fallback edges of the contract ---------------- *)

(* q -> t -> p with both p and q initially marked: firing t re-marks p,
   so the boolean encoding would lie; the sweep must detect it and hand
   over to the explicit sweep. *)
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
  check "encodable" true (Symenc.unsupported net = None);
  let reach0 = Counter.get Counter.reach in
  let g = Symbolic.explore_edges net in
  check_int "one exploration, the explicit sweep's" (reach0 + 1)
    (Counter.get Counter.reach);
  check_same_edges "explicit" (explicit_edges net) g

let test_unsafe_initial_fallback () =
  let b = Petri.Builder.create () in
  let _p = Petri.Builder.add_place b ~name:"p" ~tokens:2 in
  let _t = Petri.Builder.add_transition b ~name:"t" in
  let net = Petri.Builder.build b in
  check "outside the encoding" true (Symenc.unsupported net <> None);
  check_same_edges "explicit" (explicit_edges net) (Symbolic.explore_edges net)

(* Exceeding the cap must raise the same typed exception with the same
   budget from either sweep. *)
let test_cap_parity () =
  let net = Stg.net (Bench_gen.parallel_rings ~rings:4) in
  let expect f =
    match f () with
    | exception Reach.Too_many_states n -> n
    | _ -> Alcotest.fail "expected Too_many_states"
  in
  check_int "explicit cap" 100 (expect (fun () -> Reach.explore ~max_states:100 net));
  check_int "sweep cap" 100
    (expect (fun () -> Symbolic.explore_edges ~max_states:100 net));
  (* at the exact count, neither raises *)
  let n = Reach.n_states (Reach.explore net) in
  check_same_edges "exact budget ok"
    (explicit_edges ~max_states:n net)
    (Symbolic.explore_edges ~max_states:n net)

let parsed stg = Gformat.parse_string (Gformat.to_string stg)

(* ---------------- variable order: place-order invariance ---------------- *)

(* [stg] with place [order.(q)] renumbered [q]: names, tokens, arcs,
   transitions and labels unchanged. *)
let renumber_places stg order =
  let net = Stg.net stg in
  let m0 = Petri.initial_marking net in
  let b = Petri.Builder.create () in
  let id = Array.make (Array.length order) 0 in
  Array.iter
    (fun p ->
      id.(p) <-
        Petri.Builder.add_place b ~name:(Petri.place_name net p)
          ~tokens:(Marking.tokens m0 p))
    order;
  let nt = Petri.n_transitions net in
  for t = 0 to nt - 1 do
    ignore (Petri.Builder.add_transition b ~name:(Petri.transition_name net t))
  done;
  for t = 0 to nt - 1 do
    List.iter (fun p -> Petri.Builder.arc_pt b id.(p) t) (Petri.pre net t);
    List.iter (fun p -> Petri.Builder.arc_tp b t id.(p)) (Petri.post net t)
  done;
  Stg.make ~net:(Petri.Builder.build b)
    ~labels:(Array.init nt (Stg.label stg))
    ~signal_names:(Stg.signal_names stg)
    ~kinds:(Array.init (Stg.n_signals stg) (Stg.kind stg))
    ~name:(Stg.name stg)

let gen_order stg =
  QCheck.Gen.shuffle_l (List.init (Petri.n_places (Stg.net stg)) Fun.id)

let print_order order = String.concat " " (List.map string_of_int order)

(* Renumbering the places changes the bit each place takes in the
   sweep's masks, and nothing else: both sweeps return the original
   net's explicit edge buffer, and Σ's digest is the original's.
   (Transition ids do fix the state numbering, so they stay.) *)
let order_invariant stg order =
  let reference = used (explicit_edges (Stg.net stg)) in
  let digest = Sg.digest (Sg.of_stg ~backend:`Explicit stg) in
  let stg' = renumber_places stg (Array.of_list order) in
  let net' = Stg.net stg' in
  used (explicit_edges net') = reference
  && used (Symbolic.explore_edges net') = reference
  && Sg.digest (Sg.of_stg ~backend:`Explicit stg') = digest
  && Sg.digest (Sg.of_stg stg') = digest

let test_order_invariance (name, stg) =
  Qseed.to_alcotest
    (QCheck.Test.make ~name:("place renumbering: " ^ name)
       ~count:(3 * Qseed.soak)
       (QCheck.make ~print:print_order (gen_order stg))
       (order_invariant stg))

let test_order_invariance_fuzz =
  Qseed.to_alcotest
    (QCheck.Test.make ~name:"place renumbering: random STGs"
       ~count:(20 * Qseed.soak)
       (QCheck.make
          ~print:(fun (stg, order) ->
            Gformat.to_string stg ^ "order: " ^ print_order order)
          (fun rand ->
            let stg = Bench_gen.random ~rand in
            (stg, gen_order stg rand)))
       (fun (stg, order) -> order_invariant stg order))

let rings ks =
  List.map
    (fun k -> (Printf.sprintf "parrings-%d" k, Bench_gen.parallel_rings ~rings:k))
    ks

let pulsers ks =
  List.map
    (fun k ->
      (Printf.sprintf "pulsers-%d" k, Bench_gen.concurrent_pulsers ~branches:k))
    ks

let order_nets () =
  List.map
    (fun f -> (f, Gformat.parse_file (Filename.concat data_dir f)))
    (g_files ())
  @ rings [ 4; 5; 6 ]
  @ pulsers [ 4; 5 ]

(* ---------------- Sg adjacency allocation profile ---------------- *)

(* The successor and predecessor iterators walk the CSR indexes
   resolved once at construction, so a sweep over every state allocates
   nothing. *)
let test_adjacency_no_allocation () =
  let stg = Gformat.parse_file (Filename.concat data_dir "mr0.g") in
  let sg = Sg.of_stg stg in
  let n = Sg.n_states sg in
  let visits = ref 0 in
  let visit e = visits := !visits + e + 1 in
  let sweep () =
    for m = 0 to n - 1 do
      Sg.iter_succ sg m visit;
      Sg.iter_pred sg m visit
    done
  in
  sweep ();
  (* every edge id met once from each end *)
  let ne = Sg.n_edges sg in
  check "every edge at both ends" true (!visits = ne * (ne + 1));
  let before = Gc.allocated_bytes () in
  for _ = 1 to 100 do
    sweep ()
  done;
  let after = Gc.allocated_bytes () in
  check "no per-call allocation" true (after -. before < 1024.0)

(* ---------------- One sweep for every Σ ---------------- *)

(* [f ()] with the explorations it ran. *)
let explorations f =
  let reach0 = Counter.get Counter.reach in
  let v = f () in
  (v, Counter.get Counter.reach - reach0)

let one_sweep what calls = check_int (what ^ ": one sweep") 1 calls

let sweep_nets () =
  [
    ("parallel_rings 3", Bench_gen.parallel_rings ~rings:3);
    ("parallel_rings 5", Bench_gen.parallel_rings ~rings:5);
    ("parallel_rings 6", Bench_gen.parallel_rings ~rings:6);
    ("pulsers-5", Bench_gen.concurrent_pulsers ~branches:5);
  ]

(* A plain [synthesize] explores once, by the bitmask sweep, whatever
   the size: parallel_rings 3 (126 states) as well as parallel_rings 5
   and 6 and pulsers-5, past 2,048 markings.  Its Σ is the explicit build's, and the result
   verifies. *)
let test_auto_reach () =
  List.iter
    (fun (name, stg) ->
      let r, calls = explorations (fun () -> Mpart.synthesize stg) in
      one_sweep name calls;
      Alcotest.(check string) (name ^ ": Σ = the explicit build")
        (Sg.digest (Sg.of_stg ~backend:`Explicit stg))
        (Sg.digest r.Mpart.complete);
      check (name ^ ": verifies") true (Mpart.verify r = None))
    (sweep_nets ())

(* The partition plan takes its Σ from the same single sweep. *)
let test_partition_reach () =
  List.iter
    (fun (name, stg) ->
      let _, calls =
        explorations (fun () -> Mpart.partition_summary Mpart.default_config stg)
      in
      one_sweep name calls)
    (sweep_nets ())

(* The caller's state cap is what the sweep reports, on both sides of
   2,048 markings (the BDD backend flip), and an overflow
   costs the one sweep, with no retry; at the exact count nothing
   raises. *)
let test_auto_state_cap () =
  let stg = Bench_gen.parallel_rings ~rings:6 in
  let raised max_states =
    explorations (fun () ->
        match Sg.of_stg ~max_states stg with
        | _ -> None
        | exception Reach.Too_many_states n -> Some n)
  in
  List.iter
    (fun cap ->
      let r, calls = raised cap in
      Alcotest.(check (option int)) (Printf.sprintf "cap %d raised as %d" cap cap)
        (Some cap) r;
      one_sweep (Printf.sprintf "cap %d" cap) calls)
    [ 1000; 2047; 2048; 2049; 3000; 15_625 ];
  let r, calls = raised 15_626 in
  Alcotest.(check (option int)) "the exact count raises nothing" None r;
  one_sweep "the exact count" calls

(* A net the bitmask encoding refuses is swept once, by
   [Reach.explore]: mixed-4x4 (84 places, 2,504 markings). *)
let test_unsupported_single_sweep () =
  let stg = Bench_gen.mixed ~stages:4 ~branches:4 in
  check "outside the encoding" true
    (Symenc.unsupported (Stg.net stg) <> None);
  let sg, calls = explorations (fun () -> Sg.of_stg stg) in
  one_sweep "mixed-4x4" calls;
  check_int "2,504 markings" 2504
    (let n, _, _ = Sg.reachable stg in
     n);
  Alcotest.(check string) "Σ = the explicit build"
    (Sg.digest (Sg.of_stg ~backend:`Explicit stg))
    (Sg.digest sg)

(* ---------------- the bitmask probe ---------------- *)

(* [Symbolic.probe_edges] is the one sweep [Sg.reachable] runs on every
   encodable net.
   It must list what [Reach.explore] lists under the same cap — the same
   state count and the same [src; t; dst] cells — or raise the same
   overflow. *)
let outcome f =
  match f () with
  | g -> Ok (used g)
  | exception Reach.Too_many_states n -> Error n

let check_probe ?max_states what net =
  match Symenc.unsupported net with
  | Some _ -> ()
  | None ->
    let cap = Option.value max_states ~default:100_000 in
    let probe =
      outcome (fun () -> Symbolic.probe_edges ~max_states:cap (Symenc.make net))
    in
    let explicit = outcome (fun () -> explicit_edges ~max_states:cap net) in
    match (explicit, probe) with
    | Ok e, Ok p -> check_same_edges what e p
    | Error n, Error n' -> check_int (what ^ ": overflow cap") n n'
    | Ok _, Error n -> Alcotest.failf "%s: the probe overflowed at %d" what n
    | Error n, Ok _ -> Alcotest.failf "%s: the probe missed the overflow at %d" what n

let probe_nets () =
  let gen =
    List.map
      (fun k -> (Printf.sprintf "parrings-%d" k, Bench_gen.parallel_rings ~rings:k))
      [ 3; 4; 5; 6 ]
    @ List.map
        (fun k -> (Printf.sprintf "pulsers-%d" k, Bench_gen.concurrent_pulsers ~branches:k))
        [ 3; 4; 5; 6 ]
    @ List.map
        (fun (a, b) -> (Printf.sprintf "mixed-%dx%d" a b, Bench_gen.mixed ~stages:a ~branches:b))
        [ (2, 2); (2, 3); (3, 2); (3, 3) ]
    @ List.map
        (fun k -> (Printf.sprintf "lockring-%d" k, Bench_gen.lock_ring ~signals:k))
        [ 4; 5; 6 ]
  in
  List.map (fun f -> (f, Gformat.parse_file (Filename.concat data_dir f))) (g_files ())
  @ gen
  @ List.map (fun (name, stg) -> (name ^ " parsed", parsed stg)) gen

(* Every net at the default cap and at 2,048, and [Sg.reachable] at the
   default cap on the parsed nets past 2,048 markings, which the sweep
   serves alone. *)
let test_probe_agreement () =
  List.iter
    (fun (name, stg) ->
      let net = Stg.net stg in
      check (name ^ ": encodable") true (Symenc.unsupported net = None);
      check_probe name net;
      check_probe ~max_states:2048 (name ^ " capped at 2048") net)
    (probe_nets ());
  List.iter
    (fun (name, stg) ->
      let stg = parsed stg in
      let g = Sg.reachable stg in
      let n, _, _ = g in
      check (name ^ " parsed: past 2048 markings") true (n > 2048);
      check_same_edges (name ^ " parsed: Sg.reachable")
        (explicit_edges (Stg.net stg)) g)
    [
      ("parrings-5", Bench_gen.parallel_rings ~rings:5);
      ("parrings-6", Bench_gen.parallel_rings ~rings:6);
      ("pulsers-5", Bench_gen.concurrent_pulsers ~branches:5);
      ("pulsers-6", Bench_gen.concurrent_pulsers ~branches:6);
    ]

let test_probe_fuzz () =
  let rand = Qseed.state () in
  for i = 1 to 50 * Qseed.soak do
    let stg = Bench_gen.random ~rand in
    check_probe (Printf.sprintf "random %d" i) (Stg.net stg);
    check_probe ~max_states:20 (Printf.sprintf "random %d capped at 20" i) (Stg.net stg)
  done

(* [Too_many_states] carries the caller's cap, from the probe and from
   [Sg.reachable], on both sides of 2,048 markings; at the exact count
   nothing raises. *)
let test_probe_cap () =
  let raised f = match f () with _ -> None | exception Reach.Too_many_states n -> Some n in
  let rings4 = Bench_gen.parallel_rings ~rings:4 in
  let enc = Symenc.make (Stg.net rings4) in
  List.iter
    (fun cap ->
      Alcotest.(check (option int))
        (Printf.sprintf "probe cap %d" cap) (Some cap)
        (raised (fun () -> Symbolic.probe_edges ~max_states:cap enc)))
    [ 0; 1; 100 ];
  let n, _, _ = Symbolic.probe_edges ~max_states:100_000 enc in
  Alcotest.(check (option int)) "probe at the exact count" None
    (raised (fun () -> Symbolic.probe_edges ~max_states:n enc));
  let rings6 = Bench_gen.parallel_rings ~rings:6 in
  List.iter
    (fun cap ->
      Alcotest.(check (option int))
        (Printf.sprintf "reachable cap %d" cap) (Some cap)
        (raised (fun () -> Sg.reachable ~max_states:cap rings6)))
    [ 100; 2048; 2049; 5000 ]

(* A firing that breaks 1-safety hands the probe over to the explicit
   sweep, which counts itself: one exploration, and the explicit
   sweep's edges. *)
let test_probe_unsafe () =
  let net = unsafe_net () in
  let enc = Symenc.make net in
  let reach0 = Counter.get Counter.reach in
  let g = Symbolic.probe_edges ~max_states:100 enc in
  check_int "one explicit exploration" (reach0 + 1) (Counter.get Counter.reach);
  check_same_edges "unsafe" (explicit_edges ~max_states:100 net) g

(* ---------------- CLI: budget exit codes ---------------- *)

let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

let read_file f =
  let ic = open_in_bin f in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_cli ?(env = "") args =
  let out = Filename.temp_file "mpsyn_symbolic" ".out" in
  let err = Filename.temp_file "mpsyn_symbolic" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s %s > %s 2> %s" env mpsyn args out err)
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

(* A SAT give-up exits 1, the documented synthesis-failure code, with
   the bound that ran out in the message — not an uncaught exception
   (125).  A zero wall-clock limit stops the first module's DPLL search
   at any MPSYN_JOBS. *)
let test_cli_time_limit_exit () =
  List.iter
    (fun jobs ->
      let code, _, stderr =
        run_cli
          ~env:(Printf.sprintf "MPSYN_JOBS=%d" jobs)
          "synth ../data/vbe4a.g --time-limit 0 --backend dpll"
      in
      check_int "SAT give-up exits 1" 1 code;
      check "message names the time limit" true
        (mem_sub stderr "SAT time limit exceeded"))
    [ 1; 2 ]

(* `verify` reports a synthesis give-up as a failed case, not as a
   synthesis failure: the case line names the module and the bound, and
   the run exits 4, the verification-failure code. *)
let test_cli_verify_time_limit_exit () =
  List.iter
    (fun jobs ->
      let code, stdout, _ =
        run_cli
          (Printf.sprintf "verify --time-limit 0.000001 --jobs %d ../data/fifo.g"
             jobs)
      in
      check_int "failed case exits 4" 4 code;
      check "the case line names the give-up" true
        (mem_sub stdout "fifo" &&
         mem_sub stdout "FAIL (synthesis: module ro: SAT time limit exceeded)"))
    [ 1; 2 ]

(* parallel_rings 6 (15,626 markings) is swept once by `info` and `dot`
   too; what they print must be what the explicit build prints, byte for
   byte.  The debug line names the sweep and its state count, and no
   symbolic engine. *)
let test_cli_engine_choice () =
  let g = Filename.temp_file "mpsyn_rings6" ".g" in
  Out_channel.with_open_bin g (fun oc ->
      output_string oc (Gformat.to_string (Bench_gen.parallel_rings ~rings:6)));
  Fun.protect
    ~finally:(fun () -> Sys.remove g)
    (fun () ->
      let stg = Gformat.parse_file g in
      let sg = Sg.of_stg ~backend:`Explicit stg in
      let code, dot, stderr = run_cli ~env:"MPSYN_LOG=debug" ("dot " ^ g) in
      check_int "dot: exit 0" 0 code;
      let line =
        let n, _, _ = explicit_edges (Stg.net stg) in
        Printf.sprintf "reachability: explicit engine, %d states" n
      in
      let lines = String.split_on_char '\n' stderr in
      check ("dot: " ^ line) true
        (List.exists (String.ends_with ~suffix:line) lines);
      check "dot: one reachability line" true
        (List.length (List.filter (fun l -> mem_sub l "reachability:") lines) = 1);
      check "dot: no symbolic engine" false (mem_sub stderr "symbolic");
      Alcotest.(check string) "dot = the explicit build's" (Sg.to_dot sg) dot;
      let code, info, _ = run_cli ("info " ^ g) in
      check_int "info: exit 0" 0 code;
      let triggers o =
        Printf.sprintf "triggers(%s) = {%s}\n" (Sg.signal_name sg o)
          (String.concat ", "
             (List.map (Sg.signal_name sg)
                (Input_derivation.triggers sg ~output:o)))
      in
      let sigma_lines =
        Format.asprintf "%a@.state-signal lower bound: %d@.%s" Csc.pp_summary
          sg (Csc.lower_bound sg)
          (String.concat ""
             (List.map triggers
                (List.filter (Sg.non_input sg)
                   (List.init (Sg.n_signals sg) Fun.id))))
      in
      check "info: the Σ lines are the explicit build's" true
        (String.ends_with ~suffix:sigma_lines info))

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
      ( "variable-order",
        List.map test_order_invariance (order_nets ())
        @ [ test_order_invariance_fuzz ] );
      ( "adjacency",
        [ Alcotest.test_case "no per-call allocation" `Quick
            test_adjacency_no_allocation ] );
      ( "auto",
        [
          Alcotest.test_case "synthesis sweeps once" `Quick test_auto_reach;
          Alcotest.test_case "partition plan sweeps once" `Quick
            test_partition_reach;
          Alcotest.test_case "state cap survives the engine sweep" `Quick
            test_auto_state_cap;
          Alcotest.test_case "an unencodable net is swept once" `Quick
            test_unsupported_single_sweep;
        ] );
      ( "probe",
        [
          Alcotest.test_case "= the explicit sweep" `Quick test_probe_agreement;
          Alcotest.test_case "= the explicit sweep on random STGs" `Quick
            test_probe_fuzz;
          Alcotest.test_case "the caller's cap" `Quick test_probe_cap;
          Alcotest.test_case "unsafe fire" `Quick test_probe_unsafe;
        ] );
      ( "cli",
        [
          Alcotest.test_case "budget exhaustion exits 6" `Quick
            test_cli_budget_exit;
          Alcotest.test_case "time limit exits 1" `Quick
            test_cli_time_limit_exit;
          Alcotest.test_case "verify time limit exits 4" `Quick
            test_cli_verify_time_limit_exit;
          Alcotest.test_case "info and dot = the explicit build" `Quick
            test_cli_engine_choice;
        ] );
    ]
