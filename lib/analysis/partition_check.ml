(* Static M-rules over the modular partition plan.  See the .mli for the
   rule catalogue.  Everything here re-derives its facts from the
   complete state graph and the cone data alone — deliberately not
   through Input_derivation, so M1 is an independent check of the
   production derivation, not a restatement of it. *)

type cone = {
  c_output : int;
  c_inputs : int list;
  c_immediate : int list;
  c_kept_extras : string list;
  c_module : Sg.t;
  c_cover : int array;
  c_conflicts : int;
}

type cone_stats = {
  cs_output : string;
  cs_inputs : string list;
  cs_immediate : string list;
  cs_kept_extras : string list;
  cs_states : int;
  cs_edges : int;
  cs_conflicts : int;
  cs_frac : float;
  cs_state_frac : float;
  cs_digest : string;
  cs_risk : int;
}

type dup_group = { dg_digest : string; dg_outputs : string list }
type risk_pair = { rp_a : string; rp_b : string; rp_shared : int }

type violation = {
  v_rule : string;
  v_output : string;
  v_witness : string;
  v_detail : string;
}

type summary = {
  p_target : string;
  p_signals : int;
  p_states : int;
  p_cones : cone_stats list;
  p_duplicates : dup_group list;
  p_risky : risk_pair list;
  p_order : string list;
  p_violations : violation list;
}

let schema = "mpsyn-plan/1"

(* ------------------------------------------------------------------ *)
(* Canonical cone digest                                               *)

let fourval_char = function
  | Fourval.V0 -> '0'
  | Fourval.V1 -> '1'
  | Fourval.Up -> 'u'
  | Fourval.Dn -> 'd'

(* Content key of a state, used only to order same-label siblings during
   the canonical traversal: the visible code plus the extras values. *)
let state_key msg m =
  let buf = Buffer.create 8 in
  Buffer.add_string buf (string_of_int (Sg.code msg m));
  Array.iter
    (fun (x : Sg.extra) -> Buffer.add_char buf (fourval_char x.Sg.values.(m)))
    (Sg.extras msg);
  Buffer.contents buf

let dir_char = function Sg.R -> '+' | Sg.F -> '-'

let canonical_form ~output msg =
  let n = Sg.n_states msg in
  let perm = Array.make n (-1) in
  let next = ref 0 in
  let q = Queue.create () in
  let assign m =
    if perm.(m) < 0 then begin
      perm.(m) <- !next;
      incr next;
      Queue.push m q
    end
  in
  if n > 0 then assign (Sg.initial msg);
  while not (Queue.is_empty q) do
    let m = Queue.pop q in
    let out = ref [] in
    Sg.iter_succ msg m (fun e ->
        let dst = Sg.edge_dst msg e in
        out := (Sg.edge_label msg e, state_key msg dst, dst) :: !out);
    List.sort compare !out |> List.iter (fun (_, _, dst) -> assign dst)
  done;
  (* Quotients of a reachable graph are reachable, so this never fires;
     kept so the renumbering is total regardless. *)
  for m = 0 to n - 1 do
    if perm.(m) < 0 then begin
      perm.(m) <- !next;
      incr next
    end
  done;
  let inv = Array.make (max n 1) 0 in
  Array.iteri (fun m c -> inv.(c) <- m) perm;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (string_of_int (Sg.n_signals msg));
  Buffer.add_char buf '\x00';
  for s = 0 to Sg.n_signals msg - 1 do
    Buffer.add_char buf (if Sg.non_input msg s then '!' else '?')
  done;
  Buffer.add_char buf '\x00';
  Buffer.add_string buf (Printf.sprintf "o%d" output);
  Buffer.add_char buf '\x00';
  for c = 0 to n - 1 do
    Buffer.add_string buf (string_of_int (Sg.code msg inv.(c)));
    Buffer.add_char buf ','
  done;
  Buffer.add_char buf '\x00';
  let lines =
    List.init (Sg.n_edges msg) (fun e ->
        Printf.sprintf "%d%c%d:%d;"
          perm.(Sg.edge_src msg e)
          (dir_char (Sg.edge_dir msg e))
          (Sg.edge_signal msg e)
          perm.(Sg.edge_dst msg e))
    |> List.sort String.compare
  in
  List.iter (Buffer.add_string buf) lines;
  Buffer.add_char buf '\x00';
  Array.iteri
    (fun i (x : Sg.extra) ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ':';
      for c = 0 to n - 1 do
        Buffer.add_char buf (fourval_char x.Sg.values.(inv.(c)))
      done;
      Buffer.add_char buf ';')
    (Sg.extras msg);
  Buffer.add_char buf '\x00';
  if n > 0 then Buffer.add_string buf (string_of_int perm.(Sg.initial msg));
  (Digest.to_hex (Digest.string (Buffer.contents buf)), perm)

let cone_digest ~output msg = fst (canonical_form ~output msg)

(* ------------------------------------------------------------------ *)
(* M1: input-set closure + implied-value homogeneity                   *)

(* Independent re-derivation of the Fig. 2 trigger set: [s] triggers the
   output when some s-edge enters a state where the output is excited
   from one where it is not.  One witnessing edge per trigger. *)
let derive_triggers complete ~output =
  let n_states = Sg.n_states complete in
  let n_sig = Sg.n_signals complete in
  let excited = Array.make n_states false in
  for e = 0 to Sg.n_edges complete - 1 do
    if Sg.edge_signal complete e = output then
      excited.(Sg.edge_src complete e) <- true
  done;
  let witness = Array.make n_sig None in
  for e = 0 to Sg.n_edges complete - 1 do
    let s = Sg.edge_signal complete e in
    if
      s <> output
      && excited.(Sg.edge_dst complete e)
      && (not excited.(Sg.edge_src complete e))
      && witness.(s) = None
    then witness.(s) <- Some e
  done;
  witness

let m1_violations complete (c : cone) =
  let name = Sg.signal_name complete in
  let oname = name c.c_output in
  let vs = ref [] in
  let push w d =
    vs := { v_rule = "M1"; v_output = oname; v_witness = w; v_detail = d } :: !vs
  in
  let witness = derive_triggers complete ~output:c.c_output in
  let in_inputs = Array.make (Sg.n_signals complete) false in
  List.iter (fun s -> in_inputs.(s) <- true) c.c_inputs;
  let triggers = ref [] in
  Array.iteri
    (fun s w ->
      match w with
      | Some e ->
        triggers := s :: !triggers;
        if not in_inputs.(s) then
          push
            (Printf.sprintf
               "%s%c fired at state %d enters state %d where %s is excited"
               (name s)
               (dir_char (Sg.edge_dir complete e))
               (Sg.edge_src complete e) (Sg.edge_dst complete e) oname)
            (Printf.sprintf
               "trigger %s of output %s is missing from the derived input \
                set {%s}"
               (name s) oname
               (String.concat ", " (List.map name c.c_inputs)))
      | None -> ())
    witness;
  let triggers = List.rev !triggers in
  if c.c_immediate <> triggers then
    push
      (Printf.sprintf "re-derived triggers {%s}, recorded immediate set {%s}"
         (String.concat ", " (List.map name triggers))
         (String.concat ", " (List.map name c.c_immediate)))
      (Printf.sprintf
         "the immediate input set of %s disagrees with the independently \
          re-derived trigger set"
         oname);
  (* Homogeneity: every module state must see one implied output value. *)
  let ncls = Sg.n_states c.c_module in
  if Array.length c.c_cover = Sg.n_states complete && ncls > 0 then begin
    let seen = Array.make ncls 0 in
    let first = Array.make ncls (-1) in
    (try
       for m = 0 to Sg.n_states complete - 1 do
         let cl = c.c_cover.(m) in
         if cl >= 0 && cl < ncls then begin
           let v = if Sg.implied_value complete m c.c_output then 2 else 1 in
           if seen.(cl) = 0 then begin
             seen.(cl) <- v;
             first.(cl) <- m
           end
           else if seen.(cl) <> v then begin
             push
               (Printf.sprintf
                  "states %d and %d merge into module state %d but imply \
                   %s=%d and %s=%d"
                  first.(cl) m cl oname
                  (if seen.(cl) = 2 then 1 else 0)
                  oname
                  (if v = 2 then 1 else 0))
               (Printf.sprintf
                  "the module of %s merges states with different implied \
                   output values: its logic function cannot be consistent"
                  oname);
             raise Exit
           end
         end
       done
     with Exit -> ())
  end;
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* M5: the cover must be a sound quotient map                          *)

let m5_violations complete (c : cone) =
  let n_states = Sg.n_states complete in
  let name = Sg.signal_name complete in
  let oname = name c.c_output in
  let msg = c.c_module in
  let ncls = Sg.n_states msg in
  let vs = ref [] in
  let push w d =
    vs := { v_rule = "M5"; v_output = oname; v_witness = w; v_detail = d } :: !vs
  in
  if Array.length c.c_cover <> n_states then
    push
      (Printf.sprintf "cover has %d entries for %d complete states"
         (Array.length c.c_cover) n_states)
      (Printf.sprintf "the cover of %s does not map every complete state"
         oname)
  else if Array.exists (fun cl -> cl < 0 || cl >= ncls) c.c_cover then
    push "cover entry out of range"
      (Printf.sprintf "the cover of %s targets a non-existent module state"
         oname)
  else begin
    let n_local = Sg.n_signals msg in
    let kept = Array.make n_local (-1) in
    let resolved = ref true in
    for ls = 0 to n_local - 1 do
      match Sg.find_signal complete (Sg.signal_name msg ls) with
      | cid -> kept.(ls) <- cid
      | exception Not_found ->
        resolved := false;
        push
          (Printf.sprintf "module signal %s is not a complete-graph signal"
             (Sg.signal_name msg ls))
          (Printf.sprintf
             "the module of %s mentions a signal the complete graph does \
              not have" oname)
    done;
    if !resolved then begin
      (* Codes must be projections of the covered states' codes. *)
      (try
         for m = 0 to n_states - 1 do
           let cl = c.c_cover.(m) in
           let proj = ref 0 in
           for ls = 0 to n_local - 1 do
             if Sg.bit complete m kept.(ls) then proj := !proj lor (1 lsl ls)
           done;
           if !proj <> Sg.code msg cl then begin
             push
               (Printf.sprintf
                  "state %d projects to code %d but its module state %d has \
                   code %d" m !proj cl (Sg.code msg cl))
               (Printf.sprintf
                  "hiding+merging changed the state assignment of %s's \
                   module: the quotient is inconsistent" oname);
             raise Exit
           end
         done
       with Exit -> ());
      (* Hidden edges stay intra-class; kept edges have module images. *)
      let keptp = Array.make (Sg.n_signals complete) (-1) in
      Array.iteri (fun ls cid -> keptp.(cid) <- ls) kept;
      (try
         for e = 0 to Sg.n_edges complete - 1 do
           let src = Sg.edge_src complete e and dst = Sg.edge_dst complete e in
           let cs = c.c_cover.(src) and cd = c.c_cover.(dst) in
           let s = Sg.edge_signal complete e and d = Sg.edge_dir complete e in
           if keptp.(s) >= 0 then begin
             let l = Sg.label_code keptp.(s) d in
             let present =
               Sg.exists_succ msg cs (fun me ->
                   Sg.edge_label msg me = l && Sg.edge_dst msg me = cd)
             in
             if not present then begin
               push
                 (Printf.sprintf "edge %d -%s%c-> %d has no module edge %d -> %d"
                    src (name s) (dir_char d) dst cs cd)
                 (Printf.sprintf
                    "a kept transition of %s's module was lost by the \
                     quotient" oname);
               raise Exit
             end
           end
           else if cs <> cd then begin
             push
               (Printf.sprintf
                  "hidden edge %d -> %d crosses module states %d and %d" src dst
                  cs cd)
               (Printf.sprintf
                  "an ε-edge of %s's module connects states the cover \
                   failed to merge" oname);
             raise Exit
           end
         done
       with Exit -> ());
      (* Kept extras must re-merge, class by class, to the module's
         values (Figure 3). *)
      let find_extra sg xn =
        Array.fold_left
          (fun acc (x : Sg.extra) ->
            if x.Sg.xname = xn then Some x else acc)
          None (Sg.extras sg)
      in
      List.iter
        (fun xn ->
          match (find_extra complete xn, find_extra msg xn) with
          | Some cx, Some mx ->
            let members = Array.make ncls [] in
            for m = n_states - 1 downto 0 do
              let cl = c.c_cover.(m) in
              members.(cl) <- cx.Sg.values.(m) :: members.(cl)
            done;
            (try
               for cl = 0 to ncls - 1 do
                 match Fourval.merge members.(cl) with
                 | Some v when Fourval.equal v mx.Sg.values.(cl) -> ()
                 | merged ->
                   push
                     (Printf.sprintf
                        "state signal %s merges to %s at module state %d \
                         but the module records %s" xn
                        (match merged with
                        | Some v -> Fourval.to_string v
                        | None -> "<no consistent value>")
                        cl
                        (Fourval.to_string mx.Sg.values.(cl)))
                     (Printf.sprintf
                        "ε-merging did not preserve the state assignment \
                         of kept signal %s in %s's module" xn oname);
                   raise Exit
               done
             with Exit -> ())
          | _ ->
            push
              (Printf.sprintf "kept state signal %s is missing" xn)
              (Printf.sprintf
                 "signal %s is recorded as kept but absent from %s's \
                  module or the complete graph" xn oname))
        c.c_kept_extras
    end
  end;
  List.rev !vs

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)

(* A cone's signal set (output and inputs), sorted without repeats. *)
let cone_signals (output, inputs, _) =
  List.sort_uniq Int.compare (output :: inputs)

(* The number of signals two sorted sets share. *)
let rec shared a b =
  match (a, b) with
  | x :: a', y :: b' ->
    if x = y then 1 + shared a' b'
    else if x < y then shared a' b
    else shared a b'
  | _ -> 0

(* M4 risk of each cone: the cone signals a conflicted cone shares with
   every other conflicted cone (0 for a conflict-free cone). *)
let risks cones =
  let sets = List.map (fun ((_, _, k) as c) -> (cone_signals c, k)) cones in
  List.mapi
    (fun i (sa, k) ->
      if k = 0 then 0
      else
        List.fold_left ( + ) 0
          (List.mapi
             (fun j (sb, k') -> if j <> i && k' > 0 then shared sa sb else 0)
             sets))
    sets

let solve_order cones =
  List.map2 (fun (o, _, _) r -> (r, o)) cones (risks cones)
  |> List.sort compare |> List.map snd

let summarize ~complete cones =
  let n_sig = Sg.n_signals complete in
  let n_states = Sg.n_states complete in
  let name = Sg.signal_name complete in
  let triples =
    List.map (fun (c : cone) -> (c.c_output, c.c_inputs, c.c_conflicts)) cones
  in
  let sets = List.combine cones (List.map cone_signals triples) in
  let stats =
    List.map
      (fun ((c : cone), risk) ->
        let local_out = Sg.find_signal c.c_module (name c.c_output) in
        let n_cone = 1 + List.length c.c_inputs in
        {
          cs_output = name c.c_output;
          cs_inputs = List.map name c.c_inputs;
          cs_immediate = List.map name c.c_immediate;
          cs_kept_extras = c.c_kept_extras;
          cs_states = Sg.n_states c.c_module;
          cs_edges = Sg.n_edges c.c_module;
          cs_conflicts = c.c_conflicts;
          cs_frac = float_of_int n_cone /. float_of_int (max n_sig 1);
          cs_state_frac =
            float_of_int (Sg.n_states c.c_module)
            /. float_of_int (max n_states 1);
          cs_digest = cone_digest ~output:local_out c.c_module;
          cs_risk = risk;
        })
      (List.combine cones (risks triples))
  in
  let duplicates =
    let order = ref [] in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun cs ->
        if not (Hashtbl.mem tbl cs.cs_digest) then begin
          Hashtbl.add tbl cs.cs_digest (ref []);
          order := cs.cs_digest :: !order
        end;
        let r = Hashtbl.find tbl cs.cs_digest in
        r := cs.cs_output :: !r)
      stats;
    List.rev !order
    |> List.filter_map (fun d ->
           match List.rev !(Hashtbl.find tbl d) with
           | _ :: _ :: _ as outputs -> Some { dg_digest = d; dg_outputs = outputs }
           | _ -> None)
  in
  let risky =
    let rec pairs = function
      | [] -> []
      | ((a : cone), sa) :: rest ->
        List.filter_map
          (fun ((b : cone), sb) ->
            if a.c_conflicts > 0 && b.c_conflicts > 0 then
              let k = shared sa sb in
              if k > 0 then
                Some
                  {
                    rp_a = name a.c_output;
                    rp_b = name b.c_output;
                    rp_shared = k;
                  }
              else None
            else None)
          rest
        @ pairs rest
    in
    pairs sets
  in
  let violations =
    List.concat_map
      (fun c -> m1_violations complete c @ m5_violations complete c)
      cones
  in
  {
    p_target = Sg.name complete;
    p_signals = n_sig;
    p_states = n_states;
    p_cones = stats;
    p_duplicates = duplicates;
    p_risky = risky;
    p_order = List.map name (solve_order triples);
    p_violations = violations;
  }

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)

let diagnostics ?(degenerate_threshold = 0.9) ?(min_signals = 10) ?locked ~loc
    summary =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  List.iter
    (fun v ->
      let rule =
        if v.v_rule = "M1" then "M1-closure" else "M5-consistency"
      in
      add
        (Diagnostic.v ~rule ~severity:Diagnostic.Error ~loc
           ~subject:(Diagnostic.Sig v.v_output)
           ~hint:
             "the partition plan for this output is unsound; re-derive the \
              input set before trusting the module"
           v.v_detail
           (Printf.sprintf "witness: %s" v.v_witness)))
    summary.p_violations;
  if summary.p_signals >= min_signals then
    List.iter
      (fun cs ->
        if cs.cs_conflicts > 0 && cs.cs_frac >= degenerate_threshold then
          add
            (Diagnostic.v ~rule:"M2-degenerate" ~severity:Diagnostic.Warning
               ~loc ~subject:(Diagnostic.Sig cs.cs_output)
               ~hint:
                 "a near-total cone gains nothing from partitioning; \
                  consider the direct method for this output"
               (Printf.sprintf
                  "module of %s covers %d of %d signals (%.0f%%): the \
                   partition degenerates toward direct SAT" cs.cs_output
                  (1 + List.length cs.cs_inputs)
                  summary.p_signals
                  (100. *. cs.cs_frac))
               (Printf.sprintf
                  "its CSC instance (%d conflict classes over %d of %d \
                   states) is nearly as large as the unpartitioned encoding"
                  cs.cs_conflicts cs.cs_states summary.p_states)))
      summary.p_cones;
  List.iter
    (fun g ->
      match g.dg_outputs with
      | first :: _ ->
        add
          (Diagnostic.v ~rule:"M3-duplicate" ~severity:Diagnostic.Info ~loc
             ~subject:(Diagnostic.Sig first)
             (Printf.sprintf
                "outputs %s share an identical module cone (digest %s)"
                (String.concat ", " g.dg_outputs)
                (String.sub g.dg_digest 0 (min 12 (String.length g.dg_digest))))
             "the modules are equal up to state renaming, so one CSC solve \
              serves the whole group; synthesis replays the solution for \
              each twin")
      | [] -> ())
    summary.p_duplicates;
  let discounted a b =
    match locked with Some f -> f a b | None -> false
  in
  List.iter
    (fun rp ->
      if not (discounted rp.rp_a rp.rp_b) then
        add
          (Diagnostic.v ~rule:"M4-conflict-risk" ~severity:Diagnostic.Info ~loc
             ~subject:(Diagnostic.Sig rp.rp_a)
             (Printf.sprintf
                "modules of %s and %s both carry CSC conflicts and share %d \
                 cone signal(s)" rp.rp_a rp.rp_b rp.rp_shared)
             "their inserted state signals land in overlapping merged \
              states and may force the Fig. 5 re-analysis; the solve loop \
              is ordered by ascending risk to minimise retries"))
    summary.p_risky;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let to_json summary =
  let cone_json cs =
    Json.Obj
      [
        ("output", Str cs.cs_output);
        ("inputs", Json.str_list cs.cs_inputs);
        ("immediate", Json.str_list cs.cs_immediate);
        ("kept_extras", Json.str_list cs.cs_kept_extras);
        ("states", Json.int cs.cs_states);
        ("edges", Json.int cs.cs_edges);
        ("conflicts", Json.int cs.cs_conflicts);
        ("frac", Json.fixed 4 cs.cs_frac);
        ("state_frac", Json.fixed 4 cs.cs_state_frac);
        ("digest", Str cs.cs_digest);
        ("risk", Json.int cs.cs_risk);
      ]
  in
  let dup_json g =
    Json.Obj
      [ ("digest", Str g.dg_digest); ("outputs", Json.str_list g.dg_outputs) ]
  in
  let risk_json rp =
    Json.Obj
      [ ("a", Str rp.rp_a); ("b", Str rp.rp_b); ("shared", Json.int rp.rp_shared) ]
  in
  let violation_json v =
    Json.Obj
      [
        ("rule", Str v.v_rule);
        ("output", Str v.v_output);
        ("witness", Str v.v_witness);
        ("detail", Str v.v_detail);
      ]
  in
  Json.Obj
    [
      ("schema", Str schema);
      ("target", Str summary.p_target);
      ("signals", Json.int summary.p_signals);
      ("states", Json.int summary.p_states);
      ("cones", List (List.map cone_json summary.p_cones));
      ("duplicates", List (List.map dup_json summary.p_duplicates));
      ("overlaps", List (List.map risk_json summary.p_risky));
      ("order", Json.str_list summary.p_order);
      ("violations", List (List.map violation_json summary.p_violations));
    ]
