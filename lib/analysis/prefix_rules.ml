let rule_u0 = "U0-prefix"
let rule_u1 = "U1-safeness"
let rule_u2 = "U2-autoconcurrency"
let rule_u3 = "U3-coding"
let rule_u4 = "U4-statebound"

type summary = {
  s_events : int;
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
  s_inconsistent : string option;
}

(* ------------------------------------------------------------------ *)
(* U3/U4: Σ by the reachability every Σ shares                         *)
(* ------------------------------------------------------------------ *)

(* U3/U4 read the reachability graph only on a complete prefix, so they
   abstain wherever U1/U2 cannot decide either; past this many markings
   they abstain too. *)
let max_markings = 262_144

(* Σ from [Sg.reachable]'s edges.  [Error msg] when the STG has no
   consistent state assignment: U3 and U4 abstain and U3 reports
   [msg]. *)
let sigma stg (n, buf, n_edges) =
  match Sg.of_transition_edges stg ~n_states:n ~n_edges buf with
  | sg -> Ok sg
  | exception Sg.Inconsistent msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Analysis driver                                                     *)
(* ------------------------------------------------------------------ *)

(* [?jobs] is ignored: the end-to-end benchmark still passes it. *)
let analyze ?jobs:_ ?(max_events = 2048) stg =
  let net = Stg.net stg in
  let u = Unfold.build ~max_events net in
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
  let reach =
    if not complete then None
    else
      match Sg.reachable ~max_states:max_markings stg with
      | g -> Some g
      | exception Reach.Too_many_states _ -> None
  in
  let sigma = Option.map (sigma stg) reach in
  let sg = Option.bind sigma Result.to_option in
  let conflicts = Option.map Csc.n_conflicts sg in
  {
    s_events = Unfold.n_events u;
    s_cutoffs = Unfold.n_cutoffs u;
    s_complete = complete;
    s_unsafe;
    s_autoconc;
    s_markings = Option.map (fun (n, _, _) -> n) reach;
    s_edges = Option.map (fun (_, _, n_edges) -> n_edges) reach;
    s_sg_states = Option.map Sg.n_states sg;
    s_usc = Option.map Csc.usc_satisfied sg;
    s_csc = Option.map (fun k -> k = 0) conflicts;
    s_conflicts = conflicts;
    s_inconsistent =
      (match sigma with Some (Error msg) -> Some msg | Some (Ok _) | None -> None);
  }

(* ------------------------------------------------------------------ *)
(* The A5 oracle                                                      *)
(* ------------------------------------------------------------------ *)

let exact_mutex summary t1 t2 =
  if not summary.s_complete then None
  else Some (List.mem (min t1 t2, max t1 t2) summary.s_autoconc)

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
  Option.iter
    (fun msg ->
      emit
        (Diagnostic.v ~rule:rule_u3 ~severity:Error ~loc ~subject:target
           ~hint:"every signal must alternate rising and falling along \
                  every firing sequence"
           ("no consistent state assignment: " ^ msg)
           "the reachable state graph admits no binary code per state that \
            every transition flips consistently, so there is no state graph \
            to synthesize from - the refutation every command building it \
            reports with exit 3"))
    summary.s_inconsistent;
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
          unnecessary; synthesis reads the same verdict off the complete \
          state graph and skips SAT")
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
         "exact state-space size, explored once the prefix is complete by \
          the reachability engine every command shares; synthesis picks \
          its constraint backend from the same state count, taken from \
          the complete graph")
  | None, _ when summary.s_complete ->
    (* a complete prefix whose exploration stopped at the cap (an
       inconsistent net is always counted, so it never lands here) *)
    emit
      (Diagnostic.v ~rule:rule_u4 ~severity:Info ~loc ~subject:target
         (Printf.sprintf
            "state graph not explored: more than %d reachable markings"
            max_markings)
         "U3 and U4 explore the reachable markings only up to this cap \
          and abstained past it, so neither the CSC verdict nor the \
          state count is reported; synthesis explores under its own \
          state cap")
  | _ -> ());
  List.rev !diags
