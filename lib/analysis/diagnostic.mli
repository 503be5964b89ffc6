(** Diagnostics emitted by the structural lint rules.

    Every finding carries a stable rule id (["A1-consistency"], …), a
    severity, an optional source span pointing into the [.g] file, the
    STG/netlist element it is about, a one-line message, a longer
    explanation of why the pattern is a problem, and — when there is an
    obvious repair — a fix hint.  Reports render either human-readable
    (compiler style) or as a machine-readable JSON document. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
val pp_severity : Format.formatter -> severity -> unit

(** What a diagnostic points at; the lint driver resolves these to
    source spans through a {!Gformat.source_map} when one is available
    (i.e. when the STG came from a [.g] file rather than a builder). *)
type subject = Sig of string | Trans of string | Place of string | Net of string

val subject_name : subject -> string

type locator = subject -> Gformat.span option
(** Resolves a subject to its declaration site.  [fun _ -> None] for
    STGs without source text. *)

val no_loc : locator
val of_source_map : Gformat.source_map -> locator

type t = {
  rule : string;  (** stable id, e.g. ["A2-safeness"] *)
  severity : severity;
  span : Gformat.span option;
  subject : subject;
  message : string;  (** one line, no trailing period needed *)
  explanation : string;  (** why this matters *)
  hint : string option;  (** how to fix it, when known *)
}

(** [v ~rule ~severity ~loc ~subject ?hint message explanation] builds a
    diagnostic, resolving the span through [loc]. *)
val v :
  rule:string ->
  severity:severity ->
  loc:locator ->
  subject:subject ->
  ?hint:string ->
  string ->
  string ->
  t

type report = { target : string; diagnostics : t list }

(** [report ~target diags] sorts diagnostics (errors first, then by rule
    and source position) and wraps them. *)
val report : target:string -> t list -> report

(** [merge ~target reports] combines several reports into one,
    re-sorting the union into the canonical (severity, rule, span,
    subject) order — the rendered output is therefore identical for any
    [--jobs N], however the parts were scheduled. *)
val merge : target:string -> report list -> report

val errors : report -> t list
val warnings : report -> t list

(** [clean r] holds when [r] has no errors; [strict_clean r] also
    rejects warnings. *)
val clean : report -> bool

val strict_clean : report -> bool

(** [pp_diag] prints one finding compiler-style:
    ["error[A1-consistency] 12:3 signal csc0: ..."], followed by
    indented [note:] / [hint:] lines. *)
val pp_diag : Format.formatter -> t -> unit

(** [pp] prints the whole report with a one-line summary header. *)
val pp : Format.formatter -> report -> unit

(** The version tag stamped on every JSON report, ["mpsyn-lint/1"].

    Every finding rides in this one report, whatever engine produced
    it: the structural A-rules, the netlist hazard H-rules, the
    partial-order prefix U-rules ([mpsyn lint --prefix]), and the
    partition-plan M-rules ([mpsyn lint --partition]) all emit
    {!t} values and merge here — consumers never parse a second
    diagnostic schema.  (The unfolding engine's standalone certificate,
    ["mpsyn-prefix/1"], and the partition auditor's standalone plan,
    ["mpsyn-plan/1"] ([mpsyn lint --plan FILE], {!Partition_check}),
    are machine-checkable artifacts, not diagnostic streams.) *)
val schema : string

(** [to_json r] renders the report as a JSON object with a [schema]
    version, a [summary] and a [diagnostics] array — the
    machine-readable interface promised by [mpsyn lint --json]. *)
val to_json : report -> Json.t
