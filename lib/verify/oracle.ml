type impl = {
  spec : Sg.t;
  expanded : Sg.t;
  functions : Derive.func list;
  netlist : Netlist.t;
  initial : (string * bool) list;
}

let boundary_valuation sg =
  let m0 = Sg.initial sg in
  List.init (Sg.n_signals sg) (fun s -> (Sg.signal_name sg s, Sg.bit sg m0 s))

let input_names sg =
  List.filter_map
    (fun s -> if Sg.non_input sg s then None else Some (Sg.signal_name sg s))
    (List.init (Sg.n_signals sg) Fun.id)

let make_impl ~spec ~expanded functions =
  let netlist =
    Netlist.of_functions ~name:(Sg.name spec) ~inputs:(input_names expanded)
      functions
  in
  { spec; expanded; functions; netlist; initial = boundary_valuation expanded }

let impl_of_result (r : Mpart.result) =
  make_impl ~spec:r.Mpart.complete ~expanded:r.Mpart.expanded r.Mpart.functions

let impl_of_expanded ~spec expanded =
  if Sg.n_extras expanded > 0 then
    invalid_arg "Oracle.impl_of_expanded: expand the state signals first";
  make_impl ~spec ~expanded (Derive.synthesize expanded)

type report = {
  hazard : Hazard_check.result;
  conform : Conform.report option;
  refinement : Conform.report;
  semi_modular : bool;
  cover_errors : int;
  netlist_lint : Diagnostic.report;
  gates : int;
}

let skipped_dynamic r = r.conform = None

(* The parts of the dynamic certificate that actually ran. *)
let dynamic_passed r =
  (match r.conform with Some c -> Conform.conforms c | None -> true)
  && Conform.conforms r.refinement
  && r.semi_modular && r.cover_errors = 0
  && Diagnostic.clean r.netlist_lint

(* Abstention-aware agreement between the static H1-H5 verdict and the
   dynamic checks: a certificate must be matched by a dynamic pass, a
   refutation by a dynamic failure; an abstention claims nothing.  When
   the dynamic exploration was skipped, it was skipped *because* the
   static pass certified, and the cheap dynamic components still ran. *)
let static_agrees r =
  match r.hazard.Hazard_check.verdict with
  | Hazard_check.Certified _ -> dynamic_passed r
  | Hazard_check.Refuted _ -> not (dynamic_passed r)
  | Hazard_check.Abstained _ -> true

let passed r =
  static_agrees r
  && dynamic_passed r
  && (match r.conform with
     | Some _ -> true
     | None -> Hazard_check.certified r.hazard)

(* The certificate decomposes along what the flow actually guarantees:
   the netlist must conform {e exactly} to the expanded graph (the
   behaviour with inserted state-signal handshakes explicit), and the
   expanded graph must refine the source specification once those
   signals are hidden again.  Together with semi-modularity of the
   expanded graph this is the paper's correctness statement; demanding
   netlist-vs-source conformance directly would additionally require
   input-proper insertion, which graph labeling cannot always provide.

   The static H1-H5 pass runs first; with [~skip_when_certified:true] a
   static certificate elides the exponential product exploration
   ({!Conform.check}) — the cheap graph-level checks (refinement,
   semi-modularity, covers, structural lint) always run, so a skipping
   certificate is still cross-checked on every component that does not
   require simulation. *)
let certify ?max_states ?(skip_when_certified = false) ?cache impl =
  (* Content-addressed memoization of the two explorations.  The keys
     cover everything the result depends on: the graphs' content
     digests, the netlist's rendered form, the reset valuation, and the
     exploration cap.  A warm hit elides {!Conform.check} — visible as
     a frozen {!Counter.sim} counter, exactly like a static certificate. *)
  let params =
    [
      ( "max_states",
        match max_states with None -> "default" | Some n -> string_of_int n );
    ]
  in
  let digest spec content () =
    Cache_key.string_digest (Sg.digest spec ^ "\n" ^ content ())
  in
  let hazard =
    Hazard_check.analyze ~expanded:impl.expanded ~functions:impl.functions
      impl.netlist
  in
  let netlist_content () =
    Netlist.to_verilog impl.netlist
    ^ String.concat ";"
        (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) impl.initial)
  in
  let conform =
    if skip_when_certified && Hazard_check.certified hazard then None
    else
      Some
        (Cache_store.memoize cache ~stage:"conform" ~params
           (digest impl.expanded netlist_content) (fun () ->
             Conform.check ?max_states ~spec:impl.expanded ~initial:impl.initial
               impl.netlist))
  in
  let refinement =
    Cache_store.memoize cache ~stage:"refines" ~params
      (digest impl.spec (fun () -> Sg.digest impl.expanded)) (fun () ->
        Conform.refines ?max_states ~spec:impl.spec impl.expanded)
  in
  {
    hazard;
    conform;
    refinement;
    semi_modular = Persistency.is_semi_modular impl.expanded;
    cover_errors = List.length (Derive.check impl.functions impl.expanded);
    netlist_lint = Lint.run_netlist impl.netlist;
    gates = Netlist.n_gates impl.netlist;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>static hazard check: %a@,"
    Hazard_check.pp_result r.hazard;
  (match r.conform with
  | Some c -> Format.fprintf ppf "netlist vs expanded: %a" Conform.pp_report c
  | None ->
    Format.fprintf ppf
      "netlist vs expanded: dynamic exploration skipped (statically \
       certified)@,");
  Format.fprintf ppf
    "refinement vs source: %asemi-modular: %s@,cover mismatches: \
     %d@,netlist lint errors: %d@,static/dynamic agreement: %s@,gates: %d@]"
    Conform.pp_report r.refinement
    (if r.semi_modular then "yes" else "NO")
    r.cover_errors
    (List.length (Diagnostic.errors r.netlist_lint))
    (if static_agrees r then "yes" else "NO")
    r.gates

(* ---- differential backends ---- *)

type backend = Walksat | Dpll | Bdd | Direct

let backend_name = function
  | Walksat -> "walksat"
  | Dpll -> "dpll"
  | Bdd -> "bdd"
  | Direct -> "direct"

let all_backends = [ Walksat; Dpll; Bdd; Direct ]

(* Fail fast on structurally malformed specifications: a lint error
   (inconsistency, unsafeness, dead code…) means the state-graph layers
   below would either reject the STG anyway or synthesize garbage, so
   abstain before burning any solver budget. *)
let lint_gate stg =
  let { Lint.report; _ } = Lint.run stg in
  match Diagnostic.errors report with
  | [] -> None
  | d :: _ -> Some (Printf.sprintf "lint [%s]: %s" d.Diagnostic.rule d.Diagnostic.message)

let synthesize_with ?backtrack_limit ?time_limit ?cache backend stg =
  match lint_gate stg with
  | Some msg -> Error msg
  | None -> (
  match backend with
  | Walksat | Dpll | Bdd -> (
    let engine =
      match backend with Walksat -> `Sat | Dpll -> `Dpll | _ -> `Bdd
    in
    let config =
      {
        Mpart.default_config with
        backtrack_limit;
        time_limit;
        backend = engine;
        cache;
      }
    in
    match Mpart.synthesize ~config stg with
    | r -> Ok (impl_of_result r)
    | exception Mpart.Synthesis_failed msg -> Error msg)
  | Direct -> (
    let sg = Sg.of_stg stg in
    (* same implementability contract as the modular driver: a labeling
       is only a solution if its expansion stays semi-modular.  This is
       why conformance does not run [Direct_method.synthesize], Table
       1's driver: that one takes any labeling and minimizes its
       regions keeping CSC only, while the product exploration needs a
       semi-modular expansion, so [accept] filters the labelings and the
       accepted one is expanded unminimized *)
    let r =
      Csc_direct.solve ?backtrack_limit ?time_limit
        ~accept:Sg_expand.implementable sg
    in
    match r.Csc_direct.outcome with
    | Csc_direct.Solved solved ->
      Ok (impl_of_expanded ~spec:sg (Sg_expand.expand solved))
    | Csc_direct.Gave_up reason -> Error (Dpll.string_of_abort_reason reason)))

type differential = {
  stg_name : string;
  verdicts : (backend * (report, string) result) list;
  agree : bool;
  ok : bool;
}

(* Giving up is an abstention, not a verdict: no backend ever proves a
   specification unsynthesizable (an unsatisfiable formula just
   escalates the signal count until the budget runs out), so the
   differential cross-check demands agreement among the three modular
   backends — same algorithm, same escalation ladder, different
   decision engines — and tolerates the whole-graph [Direct] baseline
   timing out on instances that are exactly the paper's motivation. *)
let differential_one ?backtrack_limit ?time_limit ?max_states ?cache stg =
  let verdicts =
    List.map
      (fun b ->
        let v =
          match synthesize_with ?backtrack_limit ?time_limit ?cache b stg with
          | Ok impl -> Ok (certify ?max_states ?cache impl)
          | Error msg -> Error msg
        in
        (b, v))
      all_backends
  in
  let solved = List.filter (fun (_, v) -> Result.is_ok v) verdicts in
  let modular =
    List.filter (fun (b, _) -> b = Walksat || b = Dpll || b = Bdd) verdicts
  in
  let modular_solved = List.filter (fun (_, v) -> Result.is_ok v) modular in
  let agree =
    modular_solved = [] || List.length modular_solved = List.length modular
  in
  let ok =
    agree && solved <> []
    && List.for_all
         (fun (_, v) -> match v with Ok r -> passed r | Error _ -> false)
         solved
  in
  { stg_name = Stg.name stg; verdicts; agree; ok }

let pp_differential ppf d =
  Format.fprintf ppf "@[<v>%s: %s@," d.stg_name
    (if d.ok then "agree, all conform" else "DISAGREEMENT OR FAILURE");
  List.iter
    (fun (b, v) ->
      match v with
      | Ok r ->
        Format.fprintf ppf "  %-8s %s (%s, static %s, %d gates)@,"
          (backend_name b)
          (if passed r then "pass" else "FAIL")
          (match r.conform with
          | Some c ->
            Printf.sprintf "%d product states"
              c.Conform.stats.Conform.product_states
          | None -> "dynamic skipped")
          (Hazard_check.verdict_name r.hazard)
          r.gates
      | Error msg -> Format.fprintf ppf "  %-8s gave up: %s@," (backend_name b) msg)
    d.verdicts;
  Format.fprintf ppf "@]"
