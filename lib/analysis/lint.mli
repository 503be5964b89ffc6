(** Lint driver: runs every structural rule over an STG (or netlist)
    and assembles a {!Diagnostic.report}.

    All rules are purely structural — place/transition invariants,
    graph traversals and fixpoints — and never construct the
    reachability graph, so linting stays polynomial even when the state
    space explodes.  Rules: A1 consistency, A2 safeness, A3 net class,
    A4 dead code, A5 auto-concurrency, A6 lock-relation CSC prescreen;
    A7 covers netlists. *)

type result = {
  report : Diagnostic.report;
  cert : Lockrel.cert option;
      (** present iff A6 certified CSC statically *)
}

(** [run ?map ?prefix stg] lints [stg]; [map] (from
    {!Gformat.parse_file_spans}) attaches source spans to findings.
    [prefix] merges the partial-order rules U1–U4 into the report:
    their diagnostics are appended under the same [mpsyn-lint/1]
    schema, and the exact U2 verdicts silence A5's structural
    warnings ({!Autoconc.check}'s [?exact] oracle). *)
val run :
  ?map:Gformat.source_map -> ?prefix:Prefix_rules.summary -> Stg.t -> result

(** [partition ?map ?degenerate_threshold stg summary] renders a
    partition-plan summary (from [Mpart.partition_summary]) as M-rule
    diagnostics for the merged report: source spans come from [map],
    and M4 risk pairs proven non-interfering by the lock relation over
    [stg]'s P-invariants are discounted.  The threshold is passed
    through to {!Partition_check.diagnostics}, whose default
    [min_signals] applies. *)
val partition :
  ?map:Gformat.source_map ->
  ?degenerate_threshold:float ->
  Stg.t ->
  Partition_check.summary ->
  Diagnostic.t list

(** [run_netlist nl] applies the A7 rules to a synthesized netlist. *)
val run_netlist : Netlist.t -> Diagnostic.report

(** [prescreen stg] is [(run stg).cert]: [Some _] means CSC holds
    statically, so SAT-based state-signal insertion has nothing to do.
    Sound but incomplete — [None] says nothing.  Synthesis does not call
    it: it checks CSC exactly on the complete state graph, which A6
    certifies a subset of. *)
val prescreen : Stg.t -> Lockrel.cert option
