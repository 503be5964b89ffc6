(* Symbolic speed-independence checker, rules H1-H5.  See the .mli for
   the rule statements.  The analysis is static: it reads the expanded
   state graph, the derived covers and the gate netlist, builds
   per-signal region BDDs, and never simulates. *)

type region_stat = {
  rs_signal : string;
  rs_er_rise : int;
  rs_er_fall : int;
  rs_bdd_nodes : int;
}

type cert = {
  c_target : string;
  c_states : int;
  c_signals : int;
  c_rules : string list;
  c_regions : region_stat list;
}

type counterexample = {
  cx_rule : string;
  cx_signal : string;
  cx_state : (string * bool) list;
  cx_fired : (string * bool) option;
  cx_expected : bool option;
  cx_detail : string;
}

type verdict =
  | Certified of cert
  | Refuted of counterexample list
  | Abstained of string

type result = {
  verdict : verdict;
  diags : Diagnostic.t list;
  bdd_nodes : int;
  elapsed : float;
}

let rule_h1 = "H1-cover"
let rule_h2 = "H2-ack"
let rule_h3 = "H3-entry"
let rule_h4 = "H4-feedback"
let rule_h5 = "H5-semimod"
let rule_cert = "H0-certified"

exception Abstain of string

(* ---------------- netlist structure helpers ---------------- *)

let gate_out = function
  | Netlist.Inv { out; _ }
  | Netlist.And { out; _ }
  | Netlist.Or { out; _ }
  | Netlist.Wire { out; _ }
  | Netlist.Const { out; _ } ->
    out

let gate_inputs = function
  | Netlist.Inv { input; _ } | Netlist.Wire { input; _ } -> [ input ]
  | Netlist.And { inputs; _ } | Netlist.Or { inputs; _ } -> inputs
  | Netlist.Const _ -> []

(* Directed wire graph with the wires satisfying [cut] deleted; returns
   a wire on a cycle, if any.  Deleting a wire removes the edges into
   and out of it, which is exactly "the cycle passes through it". *)
let cycle_avoiding ~cut (nl : Netlist.t) =
  let adj = Hashtbl.create 64 in
  List.iter
    (fun g ->
      let o = gate_out g in
      if not (cut o) then
        List.iter
          (fun i ->
            if not (cut i) then
              Hashtbl.replace adj i
                (o :: Option.value ~default:[] (Hashtbl.find_opt adj i)))
          (gate_inputs g))
    nl.gates;
  let color = Hashtbl.create 64 in
  let found = ref None in
  let rec dfs w =
    match Hashtbl.find_opt color w with
    | Some `Done -> ()
    | Some `Active -> if !found = None then found := Some w
    | None ->
      Hashtbl.replace color w `Active;
      List.iter dfs (Option.value ~default:[] (Hashtbl.find_opt adj w));
      Hashtbl.replace color w `Done
  in
  (* deterministic start order: netlist gate order *)
  List.iter (fun g -> if not (cut (gate_out g)) then dfs (gate_out g)) nl.gates;
  !found

(* ---------------- replay ---------------- *)

let next_value nl state signal =
  match List.assoc_opt signal (Netlist.eval nl state) with
  | Some v -> v
  | None -> raise Not_found

let replay nl cx =
  try
    let cur = List.assoc cx.cx_signal cx.cx_state in
    match (cx.cx_fired, cx.cx_expected) with
    | None, Some expected -> next_value nl cx.cx_state cx.cx_signal <> expected
    | Some (fired, rising), _ ->
      let excited_now = next_value nl cx.cx_state cx.cx_signal <> cur in
      let state' =
        List.map
          (fun (n, v) -> if n = fired then (n, rising) else (n, v))
          cx.cx_state
      in
      let excited_after = next_value nl state' cx.cx_signal <> cur in
      excited_now && not excited_after
    | None, None -> false
  with Not_found -> false

(* ---------------- per-signal region partitions ---------------- *)

type regions = {
  sid : int;
  sname : string;
  func : Derive.func;
  mgr : Bdd.manager;
  er_rise : Bdd.node;
  er_fall : Bdd.node;
  qr_high : Bdd.node;
  qr_low : Bdd.node;
  rise_states : int list;  (** explicit states, for components/entries *)
  fall_states : int list;
  n_rise_codes : int;
  n_fall_codes : int;
}

(* The BDD of a set of (deduplicated) state codes, built by recursive
   cofactoring on the variable order — one pass, linear in
   [#codes × n_signals], with none of the quadratic intermediate
   disjunctions a minterm-by-minterm fold would create. *)
let of_codes mgr ~n_signals codes =
  let rec build v codes =
    match codes with
    | [] -> Bdd.bdd_false
    | _ when v >= n_signals -> Bdd.bdd_true
    | _ ->
      let lo, hi = List.partition (fun c -> c land (1 lsl v) = 0) codes in
      Bdd.ite mgr (Bdd.var mgr v) (build (v + 1) hi) (build (v + 1) lo)
  in
  build 0 codes

(* Classify every state code for signal [sid].  Two states sharing a
   code must agree on the excitation of a non-input signal (that is
   CSC); a disagreement makes the per-code regions meaningless, so the
   checker abstains rather than guess. *)
let build_regions expanded ~n_signals func sid sname =
  let mgr = Bdd.manager () in
  let cat = Hashtbl.create 256 in
  let order = ref [] in
  for m = 0 to Sg.n_states expanded - 1 do
    let c = Sg.code expanded m in
    let r = Sg.excited expanded m ~signal:sid ~dir:Sg.R in
    let f = Sg.excited expanded m ~signal:sid ~dir:Sg.F in
    match Hashtbl.find_opt cat c with
    | Some (r', f') ->
      if r' <> r || f' <> f then
        raise
          (Abstain
             (Printf.sprintf
                "state code %#x carries two excitations of %s: the expanded \
                 graph violates CSC"
                c sname))
    | None ->
      Hashtbl.add cat c (r, f);
      order := c :: !order
  done;
  let codes = List.rev !order in
  let pick p = List.filter (fun c -> p c (Hashtbl.find cat c)) codes in
  let high c = c land (1 lsl sid) <> 0 in
  let rise = pick (fun _ (r, _) -> r) in
  let fall = pick (fun _ (_, f) -> f) in
  let qh = pick (fun c (_, f) -> high c && not f) in
  let ql = pick (fun c (r, _) -> (not (high c)) && not r) in
  {
    sid;
    sname;
    func;
    mgr;
    er_rise = of_codes mgr ~n_signals rise;
    er_fall = of_codes mgr ~n_signals fall;
    qr_high = of_codes mgr ~n_signals qh;
    qr_low = of_codes mgr ~n_signals ql;
    rise_states = Sg.states_excited expanded ~signal:sid ~dir:Sg.R;
    fall_states = Sg.states_excited expanded ~signal:sid ~dir:Sg.F;
    n_rise_codes = List.length rise;
    n_fall_codes = List.length fall;
  }

(* The cover of [func], lifted from its support variables to the global
   signal variables of the expanded graph. *)
let cover_bdd mgr (func : Derive.func) =
  let support = Array.of_list func.Derive.support in
  List.fold_left
    (fun acc (c : Cube.t) ->
      let cube = ref Bdd.bdd_true in
      Array.iteri
        (fun i s ->
          if c.Cube.pos land (1 lsl i) <> 0 then
            cube := Bdd.and_ mgr !cube (Bdd.var mgr s)
          else if c.Cube.neg land (1 lsl i) <> 0 then
            cube := Bdd.and_ mgr !cube (Bdd.nvar mgr s))
        support;
      Bdd.or_ mgr acc !cube)
    Bdd.bdd_false func.Derive.cover.Cover.cubes

(* Project a global state code onto a cover's support minterm. *)
let project support code =
  let m = ref 0 in
  List.iteri
    (fun i s -> if code land (1 lsl s) <> 0 then m := !m lor (1 lsl i))
    support;
  !m

(* Symbolic complex-gate evaluation: the BDD of the next value of an
   implemented output, over the current boundary valuation (primary
   inputs and implemented outputs are leaves; internal wires expand
   through their driving gates). *)
let symbolic_next mgr (nl : Netlist.t) ~var_of_wire sname =
  let driver = Hashtbl.create 64 in
  List.iter (fun g -> Hashtbl.replace driver (gate_out g) g) nl.gates;
  let cache = Hashtbl.create 64 in
  let visiting = Hashtbl.create 16 in
  let rec wire w =
    match var_of_wire w with
    | Some v -> Bdd.var mgr v
    | None -> (
      match Hashtbl.find_opt cache w with
      | Some b -> b
      | None ->
        if Hashtbl.mem visiting w then
          raise (Abstain ("combinational cycle through internal wire " ^ w));
        Hashtbl.replace visiting w ();
        let b =
          match Hashtbl.find_opt driver w with
          | None -> raise (Abstain ("floating wire " ^ w))
          | Some g -> gate g
        in
        Hashtbl.remove visiting w;
        Hashtbl.replace cache w b;
        b)
  and gate = function
    | Netlist.Inv { input; _ } -> Bdd.not_ mgr (wire input)
    | Netlist.Wire { input; _ } -> wire input
    | Netlist.And { inputs; _ } -> Bdd.conj mgr (List.map wire inputs)
    | Netlist.Or { inputs; _ } -> Bdd.disj mgr (List.map wire inputs)
    | Netlist.Const { value; _ } -> Bdd.of_bool value
  in
  match Hashtbl.find_opt driver sname with
  | None -> raise (Abstain ("implemented output has no driving gate: " ^ sname))
  | Some g -> gate g

(* ---------------- explicit-state helpers ---------------- *)

(* Connected components (undirected) of a state set, each sorted. *)
let components sg states =
  let set = Hashtbl.create 32 in
  List.iter (fun m -> Hashtbl.replace set m ()) states;
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun m0 ->
      if Hashtbl.mem seen m0 then None
      else begin
        let comp = ref [] in
        let q = Queue.create () in
        Queue.add m0 q;
        Hashtbl.replace seen m0 ();
        while not (Queue.is_empty q) do
          let x = Queue.pop q in
          comp := x :: !comp;
          let nbrs =
            List.map (fun e -> e.Sg.dst) (Sg.succ sg x)
            @ List.map (fun e -> e.Sg.src) (Sg.pred sg x)
          in
          List.iter
            (fun y ->
              if Hashtbl.mem set y && not (Hashtbl.mem seen y) then begin
                Hashtbl.replace seen y ();
                Queue.add y q
              end)
            nbrs
        done;
        Some (List.sort compare !comp)
      end)
    states

let entry_states sg comp =
  let set = Hashtbl.create 16 in
  List.iter (fun m -> Hashtbl.replace set m ()) comp;
  List.filter
    (fun m ->
      m = Sg.initial sg
      || List.exists (fun e -> not (Hashtbl.mem set e.Sg.src)) (Sg.pred sg m))
    comp

(* ---------------- pretty-printing and JSON ---------------- *)

let dir_str rising = if rising then "+" else "-"

let state_string st =
  String.concat " "
    (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n (if v then 1 else 0)) st)

let pp_counterexample ppf cx =
  Format.fprintf ppf "@[<v>[%s] %s: %s@,  state: %s" cx.cx_rule cx.cx_signal
    cx.cx_detail (state_string cx.cx_state);
  (match cx.cx_fired with
  | Some (f, r) -> Format.fprintf ppf "@,  fired: %s%s" f (dir_str r)
  | None -> ());
  (match cx.cx_expected with
  | Some e -> Format.fprintf ppf "@,  expected next value: %d" (if e then 1 else 0)
  | None -> ());
  Format.fprintf ppf "@]"

let certified r = match r.verdict with Certified _ -> true | _ -> false
let refuted r = match r.verdict with Refuted _ -> true | _ -> false

let verdict_name r =
  match r.verdict with
  | Certified _ -> "certified"
  | Refuted _ -> "refuted"
  | Abstained _ -> "abstained"

let pp_result ppf r =
  match r.verdict with
  | Certified c ->
    Format.fprintf ppf
      "statically certified speed-independent (%s; %d states, %d signals, %d \
       BDD nodes)"
      (String.concat " " c.c_rules) c.c_states c.c_signals r.bdd_nodes
  | Refuted cxs ->
    Format.fprintf ppf "@[<v>statically REFUTED (%d counterexample(s)):"
      (List.length cxs);
    List.iter (fun cx -> Format.fprintf ppf "@,%a" pp_counterexample cx) cxs;
    Format.fprintf ppf "@]"
  | Abstained why -> Format.fprintf ppf "static check abstained: %s" why

let to_json r =
  let region rs =
    Json.Obj
      [
        ("signal", Str rs.rs_signal);
        ("er_rise", Json.int rs.rs_er_rise);
        ("er_fall", Json.int rs.rs_er_fall);
        ("bdd_nodes", Json.int rs.rs_bdd_nodes);
      ]
  in
  let counterexample cx =
    let fired (f, rising) = ("fired", Json.Str (f ^ dir_str rising)) in
    let expected e = ("expected", Json.Bool e) in
    Json.Obj
      ([
         ("rule", Json.Str cx.cx_rule);
         ("signal", Str cx.cx_signal);
         ("state", Obj (List.map (fun (n, v) -> (n, Json.Bool v)) cx.cx_state));
       ]
      @ Option.to_list (Option.map fired cx.cx_fired)
      @ Option.to_list (Option.map expected cx.cx_expected)
      @ [ ("detail", Str cx.cx_detail) ])
  in
  let body =
    match r.verdict with
    | Certified c ->
      [
        ( "certificate",
          Json.Obj
            [
              ("target", Str c.c_target);
              ("states", Json.int c.c_states);
              ("signals", Json.int c.c_signals);
              ("rules", Json.str_list c.c_rules);
              ("regions", List (List.map region c.c_regions));
            ] );
      ]
    | Refuted cxs ->
      [ ("counterexamples", Json.List (List.map counterexample cxs)) ]
    | Abstained why -> [ ("reason", Json.Str why) ]
  in
  Json.Obj
    ([
       ("schema", Json.Str "mpsyn-hazard/1");
       ("verdict", Str (verdict_name r));
       ("bdd_nodes", Json.int r.bdd_nodes);
     ]
    @ body)

(* ---------------- the analysis ---------------- *)

let analyze ?(node_budget = 2_000_000) ?(coexcited = fun _ _ -> true)
    ~expanded ~functions (nl : Netlist.t) =
  let t0 = Sys.time () in
  let diags = ref [] in
  let cexs = ref [] in
  let total_nodes = ref 0 in
  let loc = Diagnostic.no_loc in
  let emit severity ~rule ~subject ?hint msg expl =
    diags := Diagnostic.v ~rule ~severity ~loc ~subject ?hint msg expl :: !diags
  in
  let verdict =
    try
      if Sg.n_extras expanded > 0 then
        raise (Abstain "expanded graph still carries unexpanded state signals");
      let n_signals = Sg.n_signals expanded in
      let sig_id name =
        match Sg.find_signal expanded name with
        | s -> s
        | exception Not_found ->
          raise (Abstain ("netlist wire is not a graph signal: " ^ name))
      in
      let boundary = nl.inputs @ nl.outputs in
      let ids = List.map (fun w -> (w, sig_id w)) boundary in
      let var_of_wire w = List.assoc_opt w ids in
      (* the boundary valuation of a state, inputs first like Gatesim *)
      let state_of_code code =
        List.map (fun (w, s) -> (w, code land (1 lsl s) <> 0)) ids
      in
      (* first reachable state satisfying a BDD; regions are built from
         reachable codes only, so a non-false set always has one *)
      let witness mgr bdd =
        let rec go m =
          if m >= Sg.n_states expanded then None
          else if Bdd.eval_bits mgr bdd (Sg.code expanded m) then Some m
          else go (m + 1)
        in
        go 0
      in
      let func_of name =
        match
          List.find_opt (fun f -> f.Derive.name = name) functions
        with
        | Some f -> f
        | None -> raise (Abstain ("no derived function for output " ^ name))
      in
      (* -------- per-signal partitioned regions -------- *)
      let regions =
        List.map
          (fun name ->
            let r =
              build_regions expanded ~n_signals (func_of name) (sig_id name)
                name
            in
            total_nodes := !total_nodes + Bdd.n_nodes r.mgr;
            if !total_nodes > node_budget then
              raise
                (Abstain
                   (Printf.sprintf "BDD node budget exceeded (%d > %d)"
                      !total_nodes node_budget));
            r)
          nl.outputs
      in
      let refute cx msg expl =
        if replay nl cx then begin
          cexs := cx :: !cexs;
          emit Diagnostic.Error ~rule:cx.cx_rule
            ~subject:(Diagnostic.Sig cx.cx_signal) msg expl
        end
        else
          (* graph-level violation the gate semantics cannot reproduce;
             keep the finding, but it cannot serve as a certificate of
             refutation *)
          emit Diagnostic.Error ~rule:cx.cx_rule
            ~subject:(Diagnostic.Sig cx.cx_signal) msg
            (expl ^ " (counterexample did not replay at gate level)")
      in
      let h1_ok = ref true
      and h2_ok = ref true
      and h3_ok = ref true
      and h4_ok = ref true
      and h5_ok = ref true in
      (* -------- H1: monotonic cover -------- *)
      List.iter
        (fun r ->
          let c = cover_bdd r.mgr r.func in
          let implied1 = Bdd.or_ r.mgr r.er_rise r.qr_high in
          let implied0 = Bdd.or_ r.mgr r.er_fall r.qr_low in
          let uncovered = Bdd.and_ r.mgr implied1 (Bdd.not_ r.mgr c) in
          (match witness r.mgr uncovered with
          | Some m ->
            h1_ok := false;
            let cx =
              {
                cx_rule = rule_h1;
                cx_signal = r.sname;
                cx_state = state_of_code (Sg.code expanded m);
                cx_fired = None;
                cx_expected = Some true;
                cx_detail = "ON cover is 0 in a state whose implied value is 1";
              }
            in
            refute cx
              (Printf.sprintf
                 "ON cover misses implied-1 state (%s)"
                 (state_string cx.cx_state))
              "the gate de-asserts (or fails to assert) inside its own \
               excitation or stable-1 region: a premature de-assertion \
               glitch under any delay assignment"
          | None -> ());
          let overdriven = Bdd.and_ r.mgr c implied0 in
          match witness r.mgr overdriven with
          | Some m ->
            h1_ok := false;
            let cx =
              {
                cx_rule = rule_h1;
                cx_signal = r.sname;
                cx_state = state_of_code (Sg.code expanded m);
                cx_fired = None;
                cx_expected = Some false;
                cx_detail =
                  "ON cover intersects the opposing quiescent/fall region";
              }
            in
            refute cx
              (Printf.sprintf "ON cover intersects implied-0 state (%s)"
                 (state_string cx.cx_state))
              "the gate asserts in a state where the specification holds \
               the signal low: a premature assertion the environment never \
               acknowledges"
          | None -> ())
        regions;
      (* H1 monotonicity note: a rise region served by several partial
         cubes is safe under the complex-gate contract but fragments the
         cover; report it, informationally, per region. *)
      List.iter
        (fun r ->
          let support = r.func.Derive.support in
          List.iter
            (fun comp ->
              let codes =
                List.sort_uniq compare
                  (List.map (Sg.code expanded) comp)
              in
              let minterms = List.map (project support) codes in
              let full_cube c = List.for_all (Cube.covers_minterm c) minterms in
              let partial_cube c =
                (not (full_cube c))
                && List.exists (Cube.covers_minterm c) minterms
              in
              if
                List.exists partial_cube r.func.Derive.cover.Cover.cubes
                && not
                     (List.exists full_cube r.func.Derive.cover.Cover.cubes)
              then
                emit Diagnostic.Info ~rule:rule_h1
                  ~subject:(Diagnostic.Sig r.sname)
                  ~hint:
                    "enlarge the cover (--hazard-free) if the netlist is \
                     retargeted to a per-gate delay model"
                  (Printf.sprintf
                     "no single cube covers a whole %d-state rise excitation \
                      region"
                     (List.length comp))
                  "safe under the complex-gate delay model the flow \
                   guarantees, but the OR gate would rely on overlapping \
                   cube handover under per-gate delays")
            (components expanded r.rise_states))
        regions;
      (* -------- H2: output persistency / acknowledgement -------- *)
      let edges = Sg.edges expanded in
      let seen_h2 = Hashtbl.create 16 in
      Array.iter
        (fun (e : Sg.edge) ->
          let csrc = Sg.code expanded e.src and cdst = Sg.code expanded e.dst in
          let fired_edge =
            match e.label with
            | Sg.Ev (s, d) -> Some (Sg.signal_name expanded s, d)
            | Sg.Eps -> None
          in
          List.iter
            (fun r ->
              List.iter
                (fun (dir, region) ->
                  let fired_this =
                    match e.label with
                    | Sg.Ev (s, d) -> s = r.sid && d = dir
                    | Sg.Eps -> false
                  in
                  (* prefix-derived prune: if the fired source-signal
                     edge is provably never excited together with
                     (r, dir) at any state, the region test below cannot
                     fire — a steal requires both excitations at [csrc].
                     Silent edges and inserted state signals are always
                     evaluated. *)
                  let pruned =
                    match fired_edge with
                    | Some fe -> not (coexcited (r.sname, dir) fe)
                    | None -> false
                  in
                  if
                    (not pruned) && (not fired_this)
                    && Bdd.eval_bits r.mgr region csrc
                    && not (Bdd.eval_bits r.mgr region cdst)
                  then begin
                    let key = (r.sid, dir, csrc, e.label) in
                    if not (Hashtbl.mem seen_h2 key) then begin
                      Hashtbl.replace seen_h2 key ();
                      h2_ok := false;
                      let fired =
                        match e.label with
                        | Sg.Ev (s, d) ->
                          Some (Sg.signal_name expanded s, d = Sg.R)
                        | Sg.Eps -> None
                      in
                      let cx =
                        {
                          cx_rule = rule_h2;
                          cx_signal = r.sname;
                          cx_state = state_of_code csrc;
                          cx_fired = fired;
                          cx_expected = None;
                          cx_detail =
                            Printf.sprintf
                              "pending %s%s is stolen before any fanout \
                               acknowledges it"
                              r.sname
                              (dir_str (dir = Sg.R));
                        }
                      in
                      refute cx
                        (Printf.sprintf
                           "excited output %s%s is disabled by %s"
                           r.sname
                           (dir_str (dir = Sg.R))
                           (match fired with
                           | Some (f, ris) -> f ^ dir_str ris
                           | None -> "a silent step"))
                        "an excited gate output that loses its excitation \
                         without firing glitches under some delay \
                         assignment: the transition was not acknowledged \
                         before the gate's inputs changed"
                    end
                  end)
                [ (Sg.R, r.er_rise); (Sg.F, r.er_fall) ])
            regions)
        edges;
      (* -------- H3: unique entry (informational) -------- *)
      List.iter
        (fun r ->
          List.iter
            (fun (dir, states) ->
              let comps = components expanded states in
              let n_comps = List.length comps in
              List.iteri
                (fun i comp ->
                  let entries = entry_states expanded comp in
                  if List.length entries > 1 then begin
                    h3_ok := false;
                    emit Diagnostic.Info ~rule:rule_h3
                      ~subject:(Diagnostic.Sig r.sname)
                      (Printf.sprintf
                         "excitation region %s%s%s has %d entry states"
                         r.sname
                         (dir_str (dir = Sg.R))
                         (if n_comps > 1 then
                            Printf.sprintf " (component %d of %d)" (i + 1)
                              n_comps
                          else "")
                         (List.length entries))
                      "multiple entries are legal, but single-cube \
                       monotonic covers are only guaranteed for \
                       unique-entry regions"
                  end)
                comps)
            [ (Sg.R, r.rise_states); (Sg.F, r.fall_states) ])
        regions;
      (* -------- H4: feedback through state-holding wires -------- *)
      let is_output w = List.mem w nl.outputs in
      (match cycle_avoiding ~cut:is_output nl with
      | Some w ->
        h4_ok := false;
        emit Diagnostic.Error ~rule:rule_h4 ~subject:(Diagnostic.Sig w)
          ~hint:
            "route the feedback through the implemented signal's own \
             output wire"
          "combinational cycle avoids every state-holding wire"
          "a feedback loop that bypasses all implemented-output wires is \
           an uncontrolled ring: no state-holding element (SOP feedback \
           latch or C-element) tames it"
      | None -> ());
      let self_dep =
        List.filter
          (fun r -> List.mem r.sid r.func.Derive.support)
          regions
      in
      let holds_state w =
        List.exists (fun r -> r.sname = w) self_dep
      in
      (match cycle_avoiding ~cut:holds_state nl with
      | Some w when !h4_ok ->
        emit Diagnostic.Info ~rule:rule_h4 ~subject:(Diagnostic.Sig w)
          "feedback cycle passes only through combinational outputs"
          "state on this loop is held by the complex-gate boundary wires \
           alone, not by an SOP feedback latch; correct under the \
           complex-gate model, worth a C-element when decomposed"
      | _ -> ());
      (* -------- H5: closed-system semi-modularity -------- *)
      List.iter
        (fun r ->
          let next = symbolic_next r.mgr nl ~var_of_wire r.sname in
          let netlist_exc = Bdd.xor r.mgr next (Bdd.var r.mgr r.sid) in
          let graph_exc = Bdd.or_ r.mgr r.er_rise r.er_fall in
          let reach =
            Bdd.or_ r.mgr
              (Bdd.or_ r.mgr r.er_rise r.er_fall)
              (Bdd.or_ r.mgr r.qr_high r.qr_low)
          in
          let bad = Bdd.and_ r.mgr reach (Bdd.xor r.mgr netlist_exc graph_exc) in
          (match witness r.mgr bad with
          | Some m ->
            h5_ok := false;
            let cx =
              {
                cx_rule = rule_h5;
                cx_signal = r.sname;
                cx_state = state_of_code (Sg.code expanded m);
                cx_fired = None;
                cx_expected = Some (Sg.implied_value expanded m r.sid);
                cx_detail =
                  "gate-network excitation disagrees with the expanded \
                   graph";
              }
            in
            refute cx
              (Printf.sprintf
                 "netlist excitation of %s diverges from the specification \
                  (%s)"
                 r.sname
                 (state_string cx.cx_state))
              "the closed netlist-environment system is not semi-modular: \
               the circuit either produces a transition the specification \
               forbids or withholds one it owes"
          | None -> ());
          total_nodes :=
            List.fold_left (fun a r -> a + Bdd.n_nodes r.mgr) 0 regions;
          if !total_nodes > node_budget then
            raise
              (Abstain
                 (Printf.sprintf "BDD node budget exceeded (%d > %d)"
                    !total_nodes node_budget)))
        regions;
      (* -------- verdict -------- *)
      let errors = not (!h1_ok && !h2_ok && !h4_ok && !h5_ok) in
      if not errors then begin
        let rules =
          [ "H1"; "H2" ]
          @ (if !h3_ok then [ "H3" ] else [])
          @ [ "H4"; "H5" ]
        in
        let cert =
          {
            c_target = nl.name;
            c_states = Sg.n_states expanded;
            c_signals = n_signals;
            c_rules = rules;
            c_regions =
              List.map
                (fun r ->
                  {
                    rs_signal = r.sname;
                    rs_er_rise = r.n_rise_codes;
                    rs_er_fall = r.n_fall_codes;
                    rs_bdd_nodes = Bdd.n_nodes r.mgr;
                  })
                regions;
          }
        in
        emit Diagnostic.Info ~rule:rule_cert ~subject:(Diagnostic.Net nl.name)
          (Printf.sprintf
             "statically certified speed-independent (%s; %d-state regions \
              over %d signals, %d BDD nodes)"
             (String.concat " " rules) cert.c_states cert.c_signals
             !total_nodes)
          "every gate's cover matches its excitation and quiescent \
           regions, no excited output can be stolen, all feedback passes \
           state-holding wires, and the closed netlist-environment system \
           is semi-modular — the dynamic conformance exploration is \
           provably redundant for this netlist";
        Certified cert
      end
      else if !cexs <> [] then Refuted (List.rev !cexs)
      else
        Abstained
          "violations found but no counterexample replayed at gate level"
    with Abstain why ->
      emit Diagnostic.Info ~rule:"H0-abstained" ~subject:(Diagnostic.Net nl.name)
        ("static hazard analysis abstained: " ^ why)
        "the H1-H5 rules make no claim about this netlist; the dynamic \
         conformance oracle remains the authority";
      Abstained why
  in
  {
    verdict;
    diags = List.rev !diags;
    bdd_nodes = !total_nodes;
    elapsed = Sys.time () -. t0;
  }
