type result = { report : Diagnostic.report; cert : Lockrel.cert option }

let no_error diags =
  not (List.exists (fun d -> d.Diagnostic.severity = Diagnostic.Error) diags)

let run ?map ?prefix stg =
  let loc =
    match map with
    | Some m -> Diagnostic.of_source_map m
    | None -> Diagnostic.no_loc
  in
  let net = Stg.net stg in
  let pinvs =
    try Some (Invariants.p_invariants net)
    with Invariants.Too_many _ -> None
  in
  let tinvs =
    try Some (Invariants.t_invariants net)
    with Invariants.Too_many _ -> None
  in
  let capped =
    if pinvs = None || tinvs = None then
      [
        Diagnostic.v ~rule:"A0-capped" ~severity:Info ~loc
          ~subject:(Diagnostic.Net (Stg.name stg))
          "invariant generation exceeded its growth cap"
          "rules A1/A2/A5/A6 ran with partial information and may miss \
           defects on this net";
      ]
    else []
  in
  let a2 = Safeness.check ~loc stg ~pinvs in
  let a4, fireable = Deadcode.check ~loc stg ~pinvs in
  let a1 = Consistency.check ~loc stg ~tinvs ~fireable in
  let a3 = Netclass.check ~loc stg in
  let exact =
    match prefix with
    | None -> fun _ _ -> None
    | Some p -> Prefix_rules.exact_mutex p
  in
  let a5 = Autoconc.check ~exact ~loc stg ~pinvs () in
  let a6, cert =
    Lockrel.check ~loc stg ~pinvs ~a1_clean:(no_error a1)
      ~a4_clean:(no_error a4)
  in
  let u =
    match prefix with
    | None -> []
    | Some p -> Prefix_rules.diagnostics ~loc stg p
  in
  let report =
    Diagnostic.report ~target:(Stg.name stg)
      (capped @ a1 @ a2 @ a3 @ a4 @ a5 @ a6 @ u)
  in
  { report; cert }

let partition ?map ?degenerate_threshold stg summary =
  let loc =
    match map with
    | Some m -> Diagnostic.of_source_map m
    | None -> Diagnostic.no_loc
  in
  let pinvs =
    try Some (Invariants.p_invariants (Stg.net stg))
    with Invariants.Too_many _ -> None
  in
  let locked =
    match pinvs with
    | None -> None
    | Some pinvs ->
      Some
        (fun a b ->
          match (Stg.find_signal stg a, Stg.find_signal stg b) with
          | sa, sb -> Lockrel.locked stg ~pinvs sa sb
          | exception Not_found -> false)
  in
  Partition_check.diagnostics ?degenerate_threshold ?locked ~loc summary

let run_netlist nl =
  Diagnostic.report ~target:nl.Netlist.name
    (Netlint.check ~loc:Diagnostic.no_loc nl)

let prescreen stg = (run stg).cert
