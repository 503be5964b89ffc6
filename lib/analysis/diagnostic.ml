type severity = Error | Warning | Info

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let pp_severity ppf s = Format.pp_print_string ppf (severity_to_string s)
let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

type subject = Sig of string | Trans of string | Place of string | Net of string

let subject_name = function Sig n | Trans n | Place n | Net n -> n

let subject_label = function
  | Sig n -> "signal " ^ n
  | Trans n -> "transition " ^ n
  | Place n -> "place " ^ n
  | Net n -> n

type locator = subject -> Gformat.span option

let no_loc : locator = fun _ -> None

let of_source_map map : locator = function
  | Sig n -> Gformat.signal_span map n
  | Trans n -> Gformat.transition_span map n
  | Place n -> Gformat.place_span map n
  | Net _ -> None

type t = {
  rule : string;
  severity : severity;
  span : Gformat.span option;
  subject : subject;
  message : string;
  explanation : string;
  hint : string option;
}

let v ~rule ~severity ~loc ~subject ?hint message explanation =
  { rule; severity; span = loc subject; subject; message; explanation; hint }

type report = { target : string; diagnostics : t list }

let compare_diag a b =
  let c = compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = compare a.rule b.rule in
    if c <> 0 then c
    else
      let pos d =
        match d.span with
        | Some s -> (s.Gformat.line, s.Gformat.col_start)
        | None -> (max_int, max_int)
      in
      let c = compare (pos a) (pos b) in
      if c <> 0 then c
      else
        let c = compare (subject_name a.subject) (subject_name b.subject) in
        if c <> 0 then c
        else
          (* total order: two findings may share rule, span and subject
             (e.g. one transition concurrent with two others), and byte
             identity across --jobs widths must not lean on evaluation
             order *)
          let c = compare a.message b.message in
          if c <> 0 then c else compare a.hint b.hint

let report ~target diagnostics =
  { target; diagnostics = List.stable_sort compare_diag diagnostics }

(* Reports assembled from several analyses (STG rules, netlist rules,
   hazard rules) — possibly computed on different pool domains — must
   render identically for any [--jobs N]: re-sorting the concatenation
   through [report] restores the canonical (severity, rule, span,
   subject) order whatever order the parts arrived in. *)
let merge ~target reports =
  report ~target (List.concat_map (fun r -> r.diagnostics) reports)

let errors r = List.filter (fun d -> d.severity = Error) r.diagnostics
let warnings r = List.filter (fun d -> d.severity = Warning) r.diagnostics
let clean r = errors r = []
let strict_clean r = clean r && warnings r = []

let pp_diag ppf d =
  Format.fprintf ppf "@[<v>%a[%s]%t %s: %s" pp_severity d.severity d.rule
    (fun ppf ->
      match d.span with
      | None -> ()
      | Some s -> Format.fprintf ppf " %a" Gformat.pp_span s)
    (subject_label d.subject) d.message;
  if d.explanation <> "" then Format.fprintf ppf "@,  note: %s" d.explanation;
  (match d.hint with
  | None -> ()
  | Some h -> Format.fprintf ppf "@,  hint: %s" h);
  Format.fprintf ppf "@]"

let count sev r =
  List.length (List.filter (fun d -> d.severity = sev) r.diagnostics)

let pp ppf r =
  Format.fprintf ppf "@[<v>lint %s: %d error(s), %d warning(s), %d info@,"
    r.target (count Error r) (count Warning r) (count Info r);
  List.iter (fun d -> Format.fprintf ppf "%a@," pp_diag d) r.diagnostics;
  Format.fprintf ppf "@]"

let subject_kind = function
  | Sig _ -> "signal"
  | Trans _ -> "transition"
  | Place _ -> "place"
  | Net _ -> "netlist"

let diag_to_json d =
  let span (s : Gformat.span) =
    Json.Obj
      [
        ("line", Json.int s.line);
        ("col_start", Json.int s.col_start);
        ("col_end", Json.int s.col_end);
      ]
  in
  Json.Obj
    [
      ("rule", Str d.rule);
      ("severity", Str (severity_to_string d.severity));
      ("span", Json.opt span d.span);
      ("subject_kind", Str (subject_kind d.subject));
      ("subject", Str (subject_name d.subject));
      ("message", Str d.message);
      ("explanation", Str d.explanation);
      ("hint", Json.opt (fun h -> Json.Str h) d.hint);
    ]

let schema = "mpsyn-lint/1"

let to_json r =
  Json.Obj
    [
      ("schema", Str schema);
      ("target", Str r.target);
      ( "summary",
        Obj
          [
            ("errors", Json.int (count Error r));
            ("warnings", Json.int (count Warning r));
            ("infos", Json.int (count Info r));
          ] );
      ("diagnostics", List (List.map diag_to_json r.diagnostics));
    ]
