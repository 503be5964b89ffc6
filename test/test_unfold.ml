(* Complete-prefix unfolding engine and the exact U1-U4 rules.

   The engine's whole value is exactness, so the tests are agreement
   tests against explicit ground truth:
   - on every shipped benchmark, the prefix's U1 and U2 verdicts equal
     what [Reach.explore]'s markings say (a refutation iff some marking
     is unsafe; the autoconcurrent pairs are exactly the same-signal
     pairs whose presets some marking covers), and the U3/U4 verdicts
     equal [Sg.of_stg] + [Csc] and the [Coding_ref] replica over the
     same explicit graph;
   - the same property holds on a pinned-seed fuzz sweep of random
     well-formed STGs;
   - the [mpsyn-prefix/1] certificate's cutoff witnesses replay: firing
     the witness and its companion sequence from the initial marking
     reaches the same marking;
   - the counters prove the claimed work: U3/U4 explore once per
     analysis of a complete prefix, by the engine [Sg.of_stg] picks,
     and never on a truncated one; synthesis of the parallel-rings
     family — which the A6 lock-relation prescreen provably abstains on
     and U3 certifies — skips SAT entirely;
   - the engine decisions synthesis takes from the complete state graph
     agree with the ones the A6, U3 and U4 verdicts used to make. *)

let check b msg = Alcotest.(check bool) msg true b

let mem_sub hay sub =
  let n = String.length sub and len = String.length hay in
  let rec go i = i + n <= len && (String.sub hay i n = sub || go (i + 1)) in
  go 0

(* ---------------- exact agreement with the explicit graph ----------- *)

(* U1's ground truth: a refutation exactly when some reachable marking
   doubles a place. *)
let u1_agrees g p = (p.Prefix_rules.s_unsafe = None) = Reach.is_safe g

(* U2's ground truth: the same-signal pairs [(t1, t2)], [t1 < t2], whose
   preset multiset some reachable marking covers. *)
let reach_autoconc stg (g : Reach.t) =
  let net = Stg.net stg in
  let covered places =
    Array.exists
      (fun m ->
        List.for_all
          (fun p ->
            List.length (List.filter (( = ) p) places) <= Marking.tokens m p)
          places)
      g.Reach.markings
  in
  List.init (Stg.n_signals stg) (Stg.transitions_of stg)
  |> List.concat_map (fun ts ->
         List.concat_map
           (fun t1 ->
             List.filter_map
               (fun t2 ->
                 if t1 < t2 && covered (Petri.pre net t1 @ Petri.pre net t2)
                 then Some (t1, t2)
                 else None)
               ts)
           ts)
  |> List.sort_uniq compare

let u2_agrees stg g p = p.Prefix_rules.s_autoconc = reach_autoconc stg g

let check_agreement stg =
  let g = Reach.explore (Stg.net stg) in
  let sg = Sg.of_stg ~backend:`Explicit stg in
  let p = Prefix_rules.analyze stg in
  check p.Prefix_rules.s_complete "prefix complete";
  check (p.Prefix_rules.s_unsafe = None) "U1: no unsafeness refutation";
  check (p.Prefix_rules.s_autoconc = []) "U2: no autoconcurrency";
  check (u1_agrees g p) "U1 = Reach's safeness";
  check (u2_agrees stg g p) "U2 = Reach's covered presets";
  (* U3/U4 verdicts against Sg/Csc ground truth *)
  Alcotest.(check (option int))
    "U4 marking count" (Some (Reach.n_states g)) p.Prefix_rules.s_markings;
  Alcotest.(check (option int))
    "U4 edge count" (Some (Reach.n_edges g)) p.Prefix_rules.s_edges;
  Alcotest.(check (option int))
    "U4 eps-quotient size" (Some (Sg.n_states sg)) p.Prefix_rules.s_sg_states;
  Alcotest.(check (option bool))
    "U3 USC" (Some (Csc.usc_satisfied sg)) p.Prefix_rules.s_usc;
  Alcotest.(check (option bool))
    "U3 CSC" (Some (Csc.csc_satisfied sg)) p.Prefix_rules.s_csc;
  Alcotest.(check (option int))
    "U3 conflict pairs" (Some (Csc.n_conflicts sg)) p.Prefix_rules.s_conflicts;
  (* ... and against the replica lint ran before it read them off Σ *)
  let r = Coding_ref.exact_coding stg g in
  let ref_field f = Option.map f r in
  Alcotest.(check (option int))
    "U4 eps-quotient size = reference"
    (ref_field (fun c -> c.Coding_ref.cd_n_classes))
    p.Prefix_rules.s_sg_states;
  Alcotest.(check (option bool))
    "U3 USC = reference"
    (ref_field (fun c -> c.Coding_ref.cd_usc))
    p.Prefix_rules.s_usc;
  Alcotest.(check (option bool))
    "U3 CSC = reference"
    (ref_field (fun c -> c.Coding_ref.cd_csc))
    p.Prefix_rules.s_csc;
  Alcotest.(check (option int))
    "U3 conflict pairs = reference"
    (ref_field (fun c -> c.Coding_ref.cd_conflicts))
    p.Prefix_rules.s_conflicts

let test_benchmark name () =
  match List.assoc_opt name Bench_data.all with
  | Some build -> check_agreement (build ())
  | None -> Alcotest.fail ("no such benchmark: " ^ name)

(* ---------------- pinned-seed fuzz sweep --------------------------- *)

let n_fuzz = 50

let test_fuzz_agreement () =
  let rand = Qseed.state () in
  for _ = 1 to n_fuzz do
    check_agreement (Bench_gen.random ~rand)
  done

(* The generated families, larger than any Table-1 STG and (for the
   parallel rings) past the engine threshold. *)
let test_generated_agreement () =
  List.iter check_agreement
    [
      Bench_gen.parallel_rings ~rings:4;
      Bench_gen.lock_ring ~signals:6;
      Bench_gen.concurrent_pulsers ~branches:4;
      Bench_gen.mixed ~stages:2 ~branches:3;
      Bench_gen.pipeline ~stages:4;
    ]

(* One qcheck property over the same generator: the prefix's U1 and U2
   verdicts equal the explicit exploration's for arbitrary well-formed
   STGs.  Kept alongside the exhaustive sweep so a failure shrinks and
   reports the seed through the standard qcheck machinery. *)
let prop_u1_u2 =
  QCheck.Test.make ~count:n_fuzz ~name:"prefix U1/U2 = Reach's"
    (QCheck.make (fun rand -> Bench_gen.random ~rand))
    (fun stg ->
      let g = Reach.explore (Stg.net stg) in
      let p = Prefix_rules.analyze stg in
      p.Prefix_rules.s_complete && u1_agrees g p && u2_agrees stg g p)

(* ---------------- certificate replay ------------------------------- *)

(* Read every cutoff witness back from the printed certificate and
   machine-check its claim: the "fire" and "companion_fire" sequences
   must both be fireable from the initial marking and land on the same
   marking.  That is exactly what makes a cutoff sound. *)

let fire_sequence net names =
  let find_trans n =
    let rec go t =
      if t >= Petri.n_transitions net then
        Alcotest.fail ("certificate names unknown transition " ^ n)
      else if Petri.transition_name net t = n then t
      else go (t + 1)
    in
    go 0
  in
  List.fold_left
    (fun m n ->
      let t = find_trans n in
      check (Petri.enabled net m t) ("witness transition enabled: " ^ n);
      Petri.fire net m t)
    (Petri.initial_marking net)
    names

let test_cert_replay name () =
  let stg = (List.assoc name Bench_data.all) () in
  let net = Stg.net stg in
  let u = Unfold.build net in
  let cert = Json.of_string (Json.to_string (Unfold.cert_json u)) in
  check
    (Json.to_str (Json.member "schema" cert) = "mpsyn-prefix/1")
    "certificate carries its schema";
  let witnesses = Json.to_list (Json.member "cutoff_witnesses" cert) in
  let sequences key =
    List.map
      (fun w -> List.map Json.to_str (Json.to_list (Json.member key w)))
      witnesses
  in
  let fires = sequences "fire" and comps = sequences "companion_fire" in
  Alcotest.(check int)
    "one witness per cutoff" (Unfold.n_cutoffs u) (List.length fires);
  Alcotest.(check int) "paired sequences" (List.length fires)
    (List.length comps);
  List.iter2
    (fun f c ->
      let mf = fire_sequence net f and mc = fire_sequence net c in
      Alcotest.(check string)
        "cutoff and companion reach the same marking" (Marking.pack mc)
        (Marking.pack mf))
    fires comps

(* ---------------- counters prove the elisions ---------------------- *)

(* U3/U4 explore once per analysis of a complete prefix, by the one
   sweep [Sg.of_stg] runs, whatever the marking count, past 2,048
   markings too.  A truncated prefix explores nothing. *)
let explorations f =
  let reach0 = Counter.get Counter.reach in
  let p = f () in
  (p, Counter.get Counter.reach - reach0)

let test_one_engine_call () =
  let vbe4a = (List.assoc "vbe4a" Bench_data.all) () in
  let p, calls = explorations (fun () -> Prefix_rules.analyze vbe4a) in
  check p.Prefix_rules.s_complete "vbe4a: complete prefix";
  Alcotest.(check int) "vbe4a: one sweep" 1 calls;
  List.iter
    (fun (name, stg, markings) ->
      let p, calls = explorations (fun () -> Prefix_rules.analyze stg) in
      check p.Prefix_rules.s_complete (name ^ ": complete prefix");
      Alcotest.(check (option int)) (name ^ ": markings") (Some markings)
        p.Prefix_rules.s_markings;
      Alcotest.(check int) (name ^ ": one sweep") 1 calls)
    [
      ("parallel_rings 5", Bench_gen.parallel_rings ~rings:5, 3126);
      ("parallel_rings 6", Bench_gen.parallel_rings ~rings:6, 15_626);
      ("pulsers-5", Bench_gen.concurrent_pulsers ~branches:5, 3128);
    ];
  let p, calls =
    explorations (fun () -> Prefix_rules.analyze ~max_events:4 vbe4a)
  in
  check (not p.Prefix_rules.s_complete) "vbe4a at 4 events: truncated";
  Alcotest.(check int) "truncated: no exploration" 0 calls;
  check (p.Prefix_rules.s_markings = None) "truncated: U4 abstains"

(* Past 262,144 markings U3 and U4 abstain, like a truncated prefix,
   though the prefix itself is complete. *)
let test_marking_cap_abstains () =
  let stg = Bench_gen.parallel_rings ~rings:8 in
  let p = Prefix_rules.analyze stg in
  check p.Prefix_rules.s_complete "parallel_rings 8: complete prefix";
  check (p.Prefix_rules.s_markings = None) "U4 abstains";
  check (p.Prefix_rules.s_csc = None) "U3 abstains";
  check (p.Prefix_rules.s_unsafe = None) "U1 still proves safeness";
  let u4 =
    List.filter
      (fun d -> d.Diagnostic.rule = "U4-statebound")
      (Prefix_rules.diagnostics ~loc:Diagnostic.no_loc stg p)
  in
  Alcotest.(check (list string))
    "U4 names the cap"
    [ "state graph not explored: more than 262144 reachable markings" ]
    (List.map (fun d -> d.Diagnostic.message) u4);
  check
    (List.for_all (fun d -> d.Diagnostic.severity = Diagnostic.Info) u4)
    "the U4 line is an Info"

(* Parallel rings: CSC holds but cross-ring pairs never alternate, so
   the A6 lock relation abstains — only the exact U3 verdict certifies
   the family statically.  Synthesis reads the same verdict off the
   complete graph and provably never calls a solver. *)
let test_parallel_rings_prescreen rings () =
  let stg = Bench_gen.parallel_rings ~rings in
  check (Lint.prescreen stg = None) "A6 abstains on parallel rings";
  check
    ((Prefix_rules.analyze stg).Prefix_rules.s_csc = Some true)
    "U3 certifies parallel rings";
  Counter.reset Counter.solver;
  let r = Mpart.synthesize stg in
  check r.Mpart.certificate "synthesis saw the certificate";
  Alcotest.(check int) "zero solver calls" 0 (Counter.get Counter.solver);
  Alcotest.(check (option string)) "verified" None (Mpart.verify r);
  check
    (mem_sub
       (Format.asprintf "%a" Mpart.pp_report r)
       "CSC holds on the complete graph; SAT skipped")
    "report names the certificate";
  (* the partial-order saving the family exists to demonstrate *)
  let u = Unfold.build (Stg.net stg) in
  let g = Reach.explore (Stg.net stg) in
  check
    (Unfold.n_noncutoff u < Reach.n_states g)
    "prefix (non-cutoff events) smaller than the state graph"

let test_lockring_bound signals () =
  let stg = Bench_gen.lock_ring ~signals in
  let u = Unfold.build (Stg.net stg) in
  let g = Reach.explore (Stg.net stg) in
  check (Unfold.complete u) "complete";
  check
    (Unfold.n_noncutoff u < Reach.n_states g)
    "prefix smaller than state graph"

(* Backend selection is pure and only overrides the default *)
let test_choose_backend () =
  let cfg = Mpart.default_config in
  Alcotest.(check bool) "under threshold stays sat" true
    (Mpart.choose_backend cfg ~state_bound:(Some (Mpart.bdd_threshold - 1))
    = `Sat);
  Alcotest.(check bool) "over threshold goes bdd" true
    (Mpart.choose_backend cfg ~state_bound:(Some Mpart.bdd_threshold)
    = `Bdd);
  Alcotest.(check int) "the flip stays at 2048" 2048 Mpart.bdd_threshold;
  Alcotest.(check bool) "no bound stays sat" true
    (Mpart.choose_backend cfg ~state_bound:None = `Sat);
  Alcotest.(check bool) "explicit choice wins" true
    (Mpart.choose_backend
       { cfg with Mpart.backend = `Dpll }
       ~state_bound:(Some 1_000_000)
    = `Dpll)

(* ---------------- engine choice: one decision table ----------------- *)

let data_dir = Filename.concat ".." "data"

let data_stg f = Gformat.parse_file (Filename.concat data_dir f)

(* The engine decisions synthesis made before it read them off the
   complete graph, kept as the reference: the certificate from A6, then
   the exact U3 verdict of the complete prefix; the backend from the U4
   state bound (the marking lower bound when the prefix stopped short).
   Reachability is one sweep on every net, whatever the bound. *)
let reference stg =
  let p = Prefix_rules.analyze stg in
  let certificate =
    if Lint.prescreen stg <> None then `Lockrel
    else if p.Prefix_rules.s_csc = Some true then `Prefix
    else `None
  in
  let bound =
    match p.Prefix_rules.s_sg_states with
    | Some _ as b -> b
    | None -> p.Prefix_rules.s_markings
  in
  (p, certificate, bound)

(* One cold [Mpart.synthesize]: its certificate, its backend (chosen
   from the state count of the complete graph), its exploration count
   (read from [Counter.reach]) and its solver calls. *)
let decisions ?(config = Mpart.default_config) stg =
  let reach0 = Counter.get Counter.reach
  and solver0 = Counter.get Counter.solver in
  let r = Mpart.synthesize ~config stg in
  let solver = Counter.get Counter.solver - solver0 in
  let reach = Counter.get Counter.reach - reach0 in
  let backend =
    Mpart.choose_backend Mpart.default_config
      ~state_bound:(Some (Sg.n_states r.Mpart.complete))
  in
  (r.Mpart.certificate, backend, reach, solver)

(* The decisions taken from the complete graph against the reference,
   on every Table-1 STG, the generated families and a seeded sweep of
   random nets: A6 is sound for the graph certificate, a complete
   prefix's U3 verdict equals it, the backend flips as before, and
   every net is explored by the one sweep.  A
   run that takes the BDD backend makes the solver calls an explicit
   [`Bdd] run makes.  The pinned rows fix the reference's certificate
   source too.  Every
   Table-1 STG is small (at most 382 states) and needs state signals. *)
let test_resolve_table () =
  let expect ?pin name stg =
    let p, source, bound = reference stg in
    let certificate, backend, reach, solver = decisions stg in
    if source = `Lockrel then check certificate (name ^ ": A6 is sound");
    if p.Prefix_rules.s_complete then
      check
        (p.Prefix_rules.s_csc = Some certificate)
        (name ^ ": U3 equals the graph certificate");
    check
      (backend = Mpart.choose_backend Mpart.default_config ~state_bound:bound)
      (name ^ ": backend");
    Alcotest.(check int) (name ^ ": one exploration") 1 reach;
    if backend = `Bdd && not certificate then begin
      let config = { Mpart.default_config with Mpart.backend = `Bdd } in
      let _, _, _, bdd_solver = decisions ~config stg in
      Alcotest.(check int) (name ^ ": synthesis ran the BDD backend")
        bdd_solver solver
    end;
    Option.iter
      (fun (source', backend') ->
        check (source = source') (name ^ ": pinned certificate source");
        check (certificate = (source' <> `None)) (name ^ ": pinned certificate");
        check (backend = backend') (name ^ ": pinned backend"))
      pin
  in
  let files =
    Sys.readdir data_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".g")
  in
  Alcotest.(check int) "Table-1 STGs" 23 (List.length files);
  List.iter
    (fun f -> expect ~pin:(`None, `Sat) f (data_stg f))
    files;
  for signals = 2 to 12 do
    expect
      (Printf.sprintf "lock_ring %d" signals)
      (Bench_gen.lock_ring ~signals)
  done;
  for rings = 2 to 6 do
    expect
      (Printf.sprintf "parallel_rings %d" rings)
      (Bench_gen.parallel_rings ~rings)
  done;
  for branches = 3 to 5 do
    expect
      (Printf.sprintf "pulsers-%d" branches)
      (Bench_gen.concurrent_pulsers ~branches)
  done;
  expect "mixed-3x3" (Bench_gen.mixed ~stages:3 ~branches:3);
  let rand = Qseed.state () in
  for i = 1 to 40 do
    expect (Printf.sprintf "random %d" i) (Bench_gen.random ~rand)
  done;
  expect ~pin:(`Lockrel, `Sat) "lock_ring 5"
    (Bench_gen.lock_ring ~signals:5);
  expect ~pin:(`Prefix, `Sat) "parallel_rings 3"
    (Bench_gen.parallel_rings ~rings:3);
  expect ~pin:(`Prefix, `Bdd) "parallel_rings 5"
    (Bench_gen.parallel_rings ~rings:5);
  expect ~pin:(`None, `Bdd) "pulsers-5"
    (Bench_gen.concurrent_pulsers ~branches:5)

(* Both entry points run one flow, so they record the same certificate. *)
let test_entry_points_agree () =
  List.iter
    (fun (name, stg, certificate) ->
      check
        ((Mpart.synthesize stg).Mpart.certificate = certificate)
        (name ^ ": synthesize");
      check
        ((Mpart.synthesize_sg (Sg.of_stg stg)).Mpart.certificate = certificate)
        (name ^ ": synthesize_sg"))
    [
      ("lock_ring 3", Bench_gen.lock_ring ~signals:3, true);
      ("parallel_rings 3", Bench_gen.parallel_rings ~rings:3, true);
      ("vbe-ex1", data_stg "vbe-ex1.g", false);
    ]

(* The state space is explored once per synthesis, by one sweep, past
   2,048 markings as below — at any pool width. *)
let test_one_exploration () =
  List.iter
    (fun jobs ->
      let explorations stg =
        let reach0 = Counter.get Counter.reach in
        ignore
          (Mpart.synthesize ~config:{ Mpart.default_config with jobs } stg);
        Counter.get Counter.reach - reach0
      in
      let name what = Printf.sprintf "%s, jobs %d" what jobs in
      Alcotest.(check int) (name "parallel_rings 6: one sweep") 1
        (explorations (Bench_gen.parallel_rings ~rings:6));
      Alcotest.(check int) (name "mr1: one sweep") 1
        (explorations (data_stg "mr1.g")))
    [ 1; 2 ]

(* ---------------- U1/U2 refute with witnesses ---------------------- *)

(* Two tokens feed the same cycle: place q ends up doubly marked.  U1
   must refute with a replayable firing sequence; rule A2 (structural)
   cannot prove anything either way here. *)
let test_unsafe_witness () =
  let src =
    ".model unsafe\n.inputs a\n.outputs b\n.graph\na- a+ b+\na+ p\nb+ p\np \
     a-\n.marking { <a-,a+> <a-,b+> }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  let p = Prefix_rules.analyze stg in
  match p.Prefix_rules.s_unsafe with
  | None -> Alcotest.fail "U1 missed an unsafe net"
  | Some (place, fire) ->
    let net = Stg.net stg in
    let m =
      List.fold_left (fun m t -> Petri.fire net m t) (Petri.initial_marking net)
        fire
    in
    check (Marking.tokens m place >= 2) "witness doubles the reported place"

(* Same signal on two parallel branches: exact autoconcurrency, an
   error A5 can only warn about. *)
let test_autoconc_refutation () =
  let src =
    ".model autoc\n.inputs a\n.outputs b\n.graph\na+ b+ b+/2\nb+ a-\nb+/2 \
     a-\na- a+\n.marking { <a-,a+> }\n.end\n"
  in
  let stg = Gformat.parse_string src in
  let p = Prefix_rules.analyze stg in
  check (p.Prefix_rules.s_autoconc <> []) "U2 detects the concurrent pair";
  check (u2_agrees stg (Reach.explore (Stg.net stg)) p)
    "U2 = Reach's covered presets";
  let ds = Prefix_rules.diagnostics ~loc:Diagnostic.no_loc stg p in
  check
    (List.exists
       (fun d ->
         d.Diagnostic.rule = "U2-autoconcurrency"
         && d.Diagnostic.severity = Diagnostic.Error)
       ds)
    "U2 reports an error"

(* r+ x+ r+/2 x- r- r-/2: r rises twice in a row, so the STG has no
   consistent state assignment, yet it is 1-safe and free of
   autoconcurrency.  U3 and U4 read Σ, which does not exist, so they
   abstain from every verdict, and U3 reports the builder's message as
   its one error; U1 and U2 still decide from the prefix. *)
let incons_g =
  ".model incons\n.inputs r\n.outputs x\n.graph\nr+ x+\nx+ r+/2\nr+/2 \
   x-\nx- r-\nr- r-/2\nr-/2 r+\n.marking { <r-/2,r+> }\n.end\n"

let test_inconsistent_abstains () =
  let stg = Gformat.parse_string incons_g in
  let p = Prefix_rules.analyze stg in
  check p.Prefix_rules.s_complete "prefix complete";
  check (p.Prefix_rules.s_unsafe = None) "U1: no unsafeness refutation";
  check (p.Prefix_rules.s_autoconc = []) "U2: no autoconcurrency";
  Alcotest.(check (option int))
    "the marking graph is still counted" (Some 6) p.Prefix_rules.s_markings;
  Alcotest.(check (option int)) "no Σ size" None p.Prefix_rules.s_sg_states;
  Alcotest.(check (option bool)) "no USC verdict" None p.Prefix_rules.s_usc;
  Alcotest.(check (option bool)) "no CSC verdict" None p.Prefix_rules.s_csc;
  Alcotest.(check (option int)) "no conflict count" None
    p.Prefix_rules.s_conflicts;
  let message =
    match Sg.of_stg stg with
    | _ -> Alcotest.fail "Sg.of_stg must reject the net"
    | exception Sg.Inconsistent msg -> msg
  in
  Alcotest.(check (option string))
    "the builder's message" (Some message) p.Prefix_rules.s_inconsistent;
  let ds = Prefix_rules.diagnostics ~loc:Diagnostic.no_loc stg p in
  let rules = List.map (fun d -> d.Diagnostic.rule) ds in
  check
    (List.mem "U1-safeness" rules && List.mem "U2-autoconcurrency" rules)
    "U1 and U2 report";
  (match List.filter (fun d -> d.Diagnostic.rule = "U3-coding") ds with
  | [ d ] ->
    check (d.Diagnostic.severity = Diagnostic.Error) "U3's one finding is an error";
    Alcotest.(check string)
      "U3 carries the message" ("no consistent state assignment: " ^ message)
      d.Diagnostic.message
  | _ -> Alcotest.fail "U3 must report exactly one finding");
  check (not (List.mem "U4-statebound" rules)) "U4 stays silent"

let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

let run_cli args =
  let out = Filename.temp_file "mpsyn_unfold" ".out" in
  let err = Filename.temp_file "mpsyn_unfold" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s > %s 2> %s" mpsyn args out err)
  in
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let stdout = read out and stderr = read err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout, stderr)

(* `lint --prefix` and `synth` read one reachability graph, so U3's
   error carries exactly the message synthesis exits 3 with. *)
let test_cli_inconsistent_message () =
  let file = Filename.temp_file "mpsyn_incons" ".g" in
  Out_channel.with_open_bin file (fun oc -> output_string oc incons_g);
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let code, _, stderr = run_cli ("synth " ^ Filename.quote file) in
      Alcotest.(check int) "synth: exit 3" 3 code;
      let prefix = "mpsyn: no consistent state assignment: " in
      check (String.starts_with ~prefix stderr) "synth names the assignment";
      let message =
        String.trim
          (String.sub stderr (String.length prefix)
             (String.length stderr - String.length prefix))
      in
      let code, stdout, _ = run_cli ("lint --prefix " ^ Filename.quote file) in
      Alcotest.(check int) "lint --prefix: exit 3" 3 code;
      let line =
        "error[U3-coding] incons: no consistent state assignment: " ^ message
      in
      check
        (List.mem line (String.split_on_char '\n' stdout))
        ("lint --prefix prints " ^ line))

(* ---------------- determinism ------------------------------------- *)

(* The prefix is canonical: two builds of the same net print the same
   certificate, and [Prefix_rules.analyze] ignores its [?jobs]. *)
let test_jobs_deterministic () =
  List.iter
    (fun stg ->
      let net = Stg.net stg in
      let u1 = Unfold.build net and u2 = Unfold.build net in
      Alcotest.(check string)
        "certificates byte-identical"
        (Json.to_string (Unfold.cert_json u1))
        (Json.to_string (Unfold.cert_json u2));
      check
        (Prefix_rules.analyze ~jobs:1 stg = Prefix_rules.analyze ~jobs:4 stg)
        "summaries identical")
    [
      (List.assoc "mr0" Bench_data.all) ();
      Bench_gen.parallel_rings ~rings:4;
      Bench_gen.mixed ~stages:2 ~branches:3;
    ]

(* ---------------- A4 worklist regression (satellite) --------------- *)

(* The dead-transition rule was rewritten from a repeat-until-stable
   rescan to a worklist; the lock-ring family (every transition
   reachable only through the whole ring) and a reverse-declared chain
   (later-id transitions feed earlier-id ones, the order the old rescan
   leaned on) pin its behaviour. *)
let test_deadcode_worklist () =
  let all_fireable stg =
    let net = Stg.net stg in
    let f = Deadcode.potentially_fireable net in
    Array.for_all Fun.id f
  in
  check
    (all_fireable (Bench_gen.lock_ring ~signals:26))
    "every lock-ring transition is potentially fireable";
  (* declaration order deliberately anti-topological *)
  let src =
    ".model chain\n.inputs a\n.outputs b c\n.graph\nc+ a-\nb+ c+\na+ b+\na- \
     a+\n.marking { <a-,a+> }\n.end\n"
  in
  check (all_fireable (Gformat.parse_string src)) "reverse-declared chain live";
  let dead =
    ".model dead\n.inputs a\n.outputs b\n.graph\na+ a-\na- a+\nb+ b-\nb- \
     b+\n.marking { <a-,a+> }\n.end\n"
  in
  let stg = Gformat.parse_string dead in
  let f = Deadcode.potentially_fireable (Stg.net stg) in
  check
    (not (Array.for_all Fun.id f))
    "unmarked component stays dead under the worklist"

let () =
  Qseed.announce ();
  let agreement =
    List.map
      (fun (name, _) -> Alcotest.test_case name `Quick (test_benchmark name))
      Bench_data.all
  in
  Alcotest.run "unfold"
    [
      ("benchmark agreement", agreement);
      ( "fuzz agreement",
        [
          Alcotest.test_case
            (Printf.sprintf "%d random STGs agree with Reach" n_fuzz)
            `Slow test_fuzz_agreement;
          Qseed.to_alcotest prop_u1_u2;
          Alcotest.test_case "generated nets agree" `Quick
            test_generated_agreement;
        ] );
      ( "certificate",
        [
          Alcotest.test_case "mr0 cutoff witnesses replay" `Quick
            (test_cert_replay "mr0");
          Alcotest.test_case "vbe4a cutoff witnesses replay" `Quick
            (test_cert_replay "vbe4a");
        ] );
      ( "counters",
        [
          Alcotest.test_case "one engine call per analysis" `Quick
            test_one_engine_call;
          Alcotest.test_case "U3/U4 abstain past the marking cap" `Quick
            test_marking_cap_abstains;
          Alcotest.test_case "parallel-rings3: U3 certifies, SAT skipped"
            `Quick
            (test_parallel_rings_prescreen 3);
          Alcotest.test_case "parallel-rings5: U3 certifies, SAT skipped"
            `Quick
            (test_parallel_rings_prescreen 5);
          Alcotest.test_case "lock-ring8 prefix < states" `Quick
            (test_lockring_bound 8);
          Alcotest.test_case "backend selection" `Quick test_choose_backend;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "decision table" `Quick test_resolve_table;
          Alcotest.test_case "entry points agree on the certificate" `Quick
            test_entry_points_agree;
          Alcotest.test_case "one exploration per synthesis" `Quick
            test_one_exploration;
        ] );
      ( "refutations",
        [
          Alcotest.test_case "U1 unsafe witness replays" `Quick
            test_unsafe_witness;
          Alcotest.test_case "U2 exact autoconcurrency" `Quick
            test_autoconc_refutation;
          Alcotest.test_case "inconsistent STG: U3 and U4 abstain" `Quick
            test_inconsistent_abstains;
          Alcotest.test_case "cli: U3 error = synth's message" `Quick
            test_cli_inconsistent_message;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "--jobs 1 = --jobs 4" `Quick
            test_jobs_deterministic;
        ] );
      ( "deadcode worklist",
        [ Alcotest.test_case "A4 regression" `Quick test_deadcode_worklist ]
      );
    ]
