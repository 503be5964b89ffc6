let rule_u0 = "U0-prefix"
let rule_u1 = "U1-safeness"
let rule_u2 = "U2-autoconcurrency"
let rule_u3 = "U3-coding"
let rule_u4 = "U4-statebound"

type summary = {
  s_events : int;
  s_conditions : int;
  s_cutoffs : int;
  s_complete : bool;
  s_unsafe : (int * int list) option;
  s_autoconc : (int * int) list;
  s_markings : int option;
  s_edges : int option;
  s_sg_states : int option;
  s_usc : bool option;
  s_csc : bool option;
  s_conflicts : int option;
  s_signals : string list;
  s_coexcited : ((string * bool) * (string * bool)) list option;
}

(* ------------------------------------------------------------------ *)
(* U3: replay the state-graph encoding over the prefix marking graph   *)
(* ------------------------------------------------------------------ *)

type edge_kind = Krise | Kfall | Ktoggle | Ksilent

exception Inconsistent_values

(* Everything [Sg.of_stg] + [Csc] decide about coding, recomputed from
   the prefix-derived marking graph instead of [Reach.explore].  The
   replication is semantics-exact: values are pinned by rise/fall seeds
   and flip-parity propagation over the (connected) graph, and the only
   state-id-dependent step — anchoring a never-seeded signal at the
   lowest unassigned state — lands on the initial marking under both
   numberings, since both intern it as state 0.  Per-marking values,
   ε-classes, class codes and excitation signatures therefore coincide
   with the explicit construction. *)
type coding = {
  cd_n_classes : int;
  cd_usc : bool;
  cd_csc : bool;
  cd_conflicts : int;
  cd_coexcited : ((string * bool) * (string * bool)) list;
}

let exact_coding stg (mg : Unfold.mgraph) =
  let n = Array.length mg.Unfold.mg_markings in
  let ns = Stg.n_signals stg in
  if ns > 62 then None
  else
    try
      let kind_of t =
        match Stg.label stg t with
        | Stg.Dummy -> (-1, Ksilent)
        | Stg.Event e -> (
          ( e.Signal.signal,
            match e.Signal.dir with
            | Signal.Rise -> Krise
            | Signal.Fall -> Kfall
            | Signal.Toggle -> Ktoggle ))
      in
      let edge_info =
        Array.map
          (fun (src, t, dst) -> (src, dst, kind_of t))
          mg.Unfold.mg_edges
      in
      let values = Array.make_matrix ns n (-1) in
      let adj = Array.make n [] in
      Array.iter
        (fun (src, dst, k) ->
          adj.(src) <- (dst, k) :: adj.(src);
          adj.(dst) <- (src, k) :: adj.(dst))
        edge_info;
      for s = 0 to ns - 1 do
        let v = values.(s) in
        let queue = Queue.create () in
        let assign m x =
          if v.(m) < 0 then begin
            v.(m) <- x;
            Queue.add m queue
          end
          else if v.(m) <> x then raise Inconsistent_values
        in
        Array.iter
          (fun (src, dst, (sig_, k)) ->
            if sig_ = s then
              match k with
              | Krise ->
                assign src 0;
                assign dst 1
              | Kfall ->
                assign src 1;
                assign dst 0
              | Ktoggle | Ksilent -> ())
          edge_info;
        let propagate () =
          while not (Queue.is_empty queue) do
            let m = Queue.take queue in
            List.iter
              (fun (m', (sig_, k)) ->
                let flips = sig_ = s && k <> Ksilent in
                assign m' (if flips then 1 - v.(m) else v.(m)))
              adj.(m)
          done
        in
        propagate ();
        for m = 0 to n - 1 do
          if v.(m) < 0 then begin
            assign m 0;
            propagate ()
          end
        done;
        Array.iter
          (fun (src, dst, (sig_, k)) ->
            let fine =
              match (sig_ = s, k) with
              | true, Krise -> v.(src) = 0 && v.(dst) = 1
              | true, Kfall -> v.(src) = 1 && v.(dst) = 0
              | true, Ktoggle -> v.(src) = 1 - v.(dst)
              | true, Ksilent -> v.(src) = v.(dst)
              | false, _ -> v.(src) = v.(dst)
            in
            if not fine then raise Inconsistent_values)
          edge_info
      done;
      (* ε-quotient: undirected union over silent edges, like
         [Sg.quotient] with every signal kept *)
      let uf = Array.init n Fun.id in
      let rec find i = if uf.(i) = i then i else (uf.(i) <- find uf.(i); uf.(i)) in
      let union i j =
        let ri = find i and rj = find j in
        if ri <> rj then uf.(max ri rj) <- min ri rj
      in
      Array.iter
        (fun (src, dst, (_, k)) -> if k = Ksilent then union src dst)
        edge_info;
      let class_id = Array.make n (-1) in
      let n_classes = ref 0 in
      for m = 0 to n - 1 do
        let r = find m in
        if class_id.(r) < 0 then begin
          class_id.(r) <- !n_classes;
          incr n_classes
        end
      done;
      let cls m = class_id.(find m) in
      let nc = !n_classes in
      let codes = Array.make nc 0 in
      for m = 0 to n - 1 do
        let c = ref 0 in
        for s = 0 to ns - 1 do
          if values.(s).(m) = 1 then c := !c lor (1 lsl s)
        done;
        codes.(cls m) <- !c
      done;
      (* excitation per class: concrete signal edges of the projected
         non-silent edges (toggles resolved by the source value) *)
      let exc = Array.make nc [] in
      Array.iter
        (fun (src, _, (sig_, k)) ->
          let record is_rise =
            let c = cls src in
            if not (List.mem (sig_, is_rise) exc.(c)) then
              exc.(c) <- (sig_, is_rise) :: exc.(c)
          in
          match k with
          | Ksilent -> ()
          | Krise -> record true
          | Kfall -> record false
          | Ktoggle -> record (values.(sig_).(src) = 0))
        edge_info;
      let signature c =
        let buf = Buffer.create 16 in
        List.iter
          (fun (s, is_rise) ->
            if Signal.non_input (Stg.kind stg s) then
              Buffer.add_string buf
                (Printf.sprintf "%d%c;" s (if is_rise then '+' else '-')))
          (List.sort compare exc.(c));
        Buffer.contents buf
      in
      let by_code = Hashtbl.create nc in
      for c = 0 to nc - 1 do
        let cur =
          Option.value (Hashtbl.find_opt by_code codes.(c)) ~default:[]
        in
        Hashtbl.replace by_code codes.(c) (c :: cur)
      done;
      let usc = ref true and conflicts = ref 0 in
      Hashtbl.iter
        (fun _ members ->
          match members with
          | [] | [ _ ] -> ()
          | ms ->
            usc := false;
            let sigs = List.map signature ms in
            let rec pairs = function
              | [] -> ()
              | sm :: rest ->
                List.iter (fun sm' -> if sm <> sm' then incr conflicts) rest;
                pairs rest
            in
            pairs sigs)
        by_code;
      let co = Hashtbl.create 64 in
      Array.iter
        (fun evs ->
          let evs =
            List.sort compare
              (List.map
                 (fun (s, is_rise) -> (Stg.signal_name stg s, is_rise))
                 evs)
          in
          let rec pairs = function
            | [] -> ()
            | a :: rest ->
              List.iter (fun b -> Hashtbl.replace co (a, b) ()) rest;
              pairs rest
          in
          pairs evs)
        exc;
      let cd_coexcited =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) co [])
      in
      Some
        {
          cd_n_classes = nc;
          cd_usc = !usc;
          cd_csc = !conflicts = 0;
          cd_conflicts = !conflicts;
          cd_coexcited;
        }
    with Inconsistent_values -> None

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                     *)
(* ------------------------------------------------------------------ *)

let analyze ?(jobs = 1) ?(max_events = 2048) ?(max_cuts = 262144) stg =
  let net = Stg.net stg in
  let u = Unfold.build ~jobs ~max_events net in
  let complete = Unfold.complete u in
  let s_unsafe =
    (* a violating co-set is a genuine refutation even on a truncated
       prefix; only the safeness *proof* needs completeness *)
    Unfold.unsafe_witness u
  in
  let s_autoconc =
    if not complete then []
    else begin
      let acc = ref [] in
      for s = 0 to Stg.n_signals stg - 1 do
        let rec pairs = function
          | [] -> ()
          | t1 :: rest ->
            List.iter
              (fun t2 ->
                if Unfold.step_coenabled u t1 t2 then
                  acc := (min t1 t2, max t1 t2) :: !acc)
              rest;
            pairs rest
        in
        pairs (Stg.transitions_of stg s)
      done;
      List.sort_uniq compare !acc
    end
  in
  let mg = Unfold.marking_graph ~max_cuts u in
  let swept = mg.Unfold.mg_complete in
  let coding = if swept then exact_coding stg mg else None in
  {
    s_events = Unfold.n_events u;
    s_conditions = Unfold.n_conditions u;
    s_cutoffs = Unfold.n_cutoffs u;
    s_complete = complete;
    s_unsafe;
    s_autoconc;
    s_markings = (if swept then Some (Array.length mg.Unfold.mg_markings) else None);
    s_edges = (if swept then Some (Array.length mg.Unfold.mg_edges) else None);
    s_sg_states = Option.map (fun c -> c.cd_n_classes) coding;
    s_usc = Option.map (fun c -> c.cd_usc) coding;
    s_csc = Option.map (fun c -> c.cd_csc) coding;
    s_conflicts = Option.map (fun c -> c.cd_conflicts) coding;
    s_signals = List.init (Stg.n_signals stg) (Stg.signal_name stg);
    s_coexcited = Option.map (fun c -> c.cd_coexcited) coding;
  }

(* ------------------------------------------------------------------ *)
(* Oracles for other analyses                                          *)
(* ------------------------------------------------------------------ *)

let exact_mutex summary t1 t2 =
  if not summary.s_complete then None
  else Some (List.mem (min t1 t2, max t1 t2) summary.s_autoconc)

let coexcited_pred summary =
  match summary.s_coexcited with
  | None -> fun _ _ -> true
  | Some pairs ->
    let tbl = Hashtbl.create (List.length pairs * 2) in
    List.iter (fun p -> Hashtbl.replace tbl p ()) pairs;
    let known = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace known s ()) summary.s_signals;
    fun (n1, d1) (n2, d2) ->
      if not (Hashtbl.mem known n1 && Hashtbl.mem known n2) then true
      else begin
        let a = (n1, d1 = Sg.R) and b = (n2, d2 = Sg.R) in
        let key = if a <= b then (a, b) else (b, a) in
        Hashtbl.mem tbl key
      end

(* ------------------------------------------------------------------ *)
(* Diagnostics                                                         *)
(* ------------------------------------------------------------------ *)

let diagnostics ~loc stg summary =
  let net = Stg.net stg in
  let target = Diagnostic.Net (Stg.name stg) in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  if not summary.s_complete then
    emit
      (Diagnostic.v ~rule:rule_u0 ~severity:Info ~loc ~subject:target
         ~hint:"raise the prefix event cap to restore exact verdicts"
         (Printf.sprintf
            "finite-prefix construction stopped at %d events before \
             completion"
            summary.s_events)
         "rules U1-U4 abstained: a truncated prefix under-approximates \
          the behaviour, so neither proofs nor exhaustive refutations \
          are available");
  (match summary.s_unsafe with
  | Some (p, fire) ->
    emit
      (Diagnostic.v ~rule:rule_u1 ~severity:Error ~loc
         ~subject:(Diagnostic.Place (Petri.place_name net p))
         ~hint:"the net is not 1-safe; add ordering so the place cannot \
                be marked twice"
         (Printf.sprintf "accumulates two tokens after firing [%s]"
            (String.concat "; "
               (List.map (Petri.transition_name net) fire)))
         "two concurrent conditions of the unfolding share this place: \
          the printed firing sequence is replayable from the initial \
          marking and refutes 1-safeness exactly (rule A2 can only \
          abstain here)")
  | None ->
    if summary.s_complete then
      emit
        (Diagnostic.v ~rule:rule_u1 ~severity:Info ~loc ~subject:target
           (Printf.sprintf
              "proved 1-safe by a complete finite prefix (%d events, %d \
               cutoffs)"
              summary.s_events summary.s_cutoffs)
           "no co-set of the complete prefix doubles a place, which is \
            an exact proof - stronger than A2's structural \
            over-approximation"));
  List.iter
    (fun (t1, t2) ->
      emit
        (Diagnostic.v ~rule:rule_u2 ~severity:Error ~loc
           ~subject:(Diagnostic.Trans (Petri.transition_name net t1))
           ~hint:"order the two transitions, or route both through a \
                  common 1-safe choice place"
           (Printf.sprintf "fires concurrently with %s (exact)"
              (Petri.transition_name net t2))
           "the prefix contains a co-set covering both presets, so the \
            two transitions of this signal really can fire as a step \
            and the wire behaviour is undefined - this is A5's concern, \
            upgraded from a may-warning to an exact refutation"))
    summary.s_autoconc;
  if summary.s_complete && summary.s_autoconc = [] then
    emit
      (Diagnostic.v ~rule:rule_u2 ~severity:Info ~loc ~subject:target
         "no signal is autoconcurrent (exact, from the complete prefix)"
         "every same-signal transition pair was checked for \
          step-coenabledness against the prefix co-sets; structural A5 \
          warnings on this net, if any, are false alarms and were \
          suppressed");
  (match (summary.s_csc, summary.s_conflicts, summary.s_usc) with
  | Some true, _, _ ->
    emit
      (Diagnostic.v ~rule:rule_u3 ~severity:Info ~loc ~subject:target
         (Printf.sprintf
            "CSC certified from the prefix: %s state codes, no conflicts"
            (match summary.s_usc with
            | Some true -> "unique"
            | _ -> "non-unique but complete")
         )
         "no two reachable states share a code while enabling different \
          non-input signals, so SAT-based state-signal insertion is \
          unnecessary; Mpart accepts this certificate when the A6 lock \
          relation abstains")
  | Some false, Some k, _ ->
    emit
      (Diagnostic.v ~rule:rule_u3 ~severity:Info ~loc ~subject:target
         (Printf.sprintf
            "%d CSC conflict pair(s) detected from the prefix (exact)" k)
         "state coding is incomplete and synthesis will insert state \
          signals; informational because shipped specifications \
          legitimately carry conflicts - resolving them is what the \
          flow is for")
  | _ -> ());
  (match (summary.s_markings, summary.s_sg_states) with
  | Some m, Some c ->
    emit
      (Diagnostic.v ~rule:rule_u4 ~severity:Info ~loc ~subject:target
         (Printf.sprintf
            "state graph bound: %d markings, %d states after \
             eps-contraction (prefix: %d events)"
            m c summary.s_events)
         "exact state-space size computed from the prefix without \
          explicit exploration; synthesis picks its constraint backend \
          from the same state count, taken from the complete graph")
  | _ -> ());
  List.rev !diags
