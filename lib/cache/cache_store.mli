(** Content-addressed, on-disk memoization store (schema [mpsyn-cache/11]).

    One entry per file under [DIR/11/] (the subdirectory is the schema
    major version: bumping {!schema_version} orphans every old entry at
    once — explicit wholesale invalidation).  An entry is:

    {v
    mpsyn-cache/11\n
    <md5 hex of payload>\n
    <payload: Marshal bytes>
    v}

    Durability and integrity discipline:
    - {b checksummed}: the payload digest is verified on every read; a
      truncated or bit-flipped entry is logged as a diagnostic, deleted,
      and treated as a miss — never a crash, never a stale result;
    - {b atomic}: writes go to a unique temp file in the same directory
      and are published with [rename], so concurrent readers (and
      concurrent writers racing on one key — the [--jobs N] case, or
      several processes sharing [MPSYN_CACHE]) only ever observe
      complete entries;
    - {b bounded}: a running size estimate, seeded by one scan at
      {!open_dir} and grown by this process's writes; a write that
      takes it past [max_bytes] rescans and evicts least-recently-used
      entries (reads touch mtimes) down to three quarters of
      [max_bytes].  Other processes' writes are seen only at this
      process's next scan.

    Callers reach the store through {!memoize}, the one
    lookup-or-compute path; [get] and [put] are its two halves, exposed
    for the store's own tests.  Typing discipline: a lookup trusts the
    caller to read an entry with the type it was written at.  Keys come
    from {!Cache_key.entry}, whose [stage] name pins the value type, so
    distinct types can never share a key.

    Six stages are written, each one entry per specification or per
    implementation: ["synth"] (a whole [Mpart.synthesize] result),
    ["sg"] (the complete state graph), ["plan"] (the audited partition
    plan), ["prefix"] (the partial-order summary), and ["conform"] and
    ["refines"] (the oracle's two explorations). *)

type t

val schema_version : string
(** ["mpsyn-cache/11"].  v1 → v2: whole-synthesis entries now carry the
    audited partition plan ({!Mpart.result} gained fields), changing
    their marshal layout — the bump orphans every v1 entry at once.
    v2 → v3: state graphs precompute their adjacency lists ([Sg.t]
    gained fields, changing the marshal layout of every entry embedding
    a graph), and the reachability stage splits into ["sg"] (explicit
    sweep) and ["symbolic"] (partitioned-transition-relation BDD
    engine) entries — byte-identical artifacts, recorded under the
    engine that produced them.  v3 → v4: the engines are chosen by
    one decision from the specification, so those two stages merge
    back into one ["sg"] stage; synthesis results record which
    prescreen issued their CSC certificate and no longer carry timings;
    the option fingerprint and the ["prefix"] key parameters shrink
    with the configuration.  v4 → v5: prefix summaries no longer embed
    the rendered [mpsyn-prefix/1] certificate, changing the marshal
    layout of every ["prefix"] entry.  v5 → v6: synthesis reads its CSC
    certificate off the complete graph, so results record it as one
    bool and the ["synth-sg"] key drops its certificate parameter.
    Since then nothing writes ["synth-sg"], and a v6 store's old
    ["synth-sg"] entries are never read again (no other value type
    changed, so no bump).  v6 → v7: state graphs drop their unread
    edge-index adjacency lists ([Sg.t] lost two fields, changing the
    marshal layout of every entry embedding a graph).  v7 → v8: prefix
    summaries carry the inconsistent-assignment message
    ([Prefix_rules.s_inconsistent]), changing the marshal layout of
    every ["prefix"] entry.  v8 → v9: whole-synthesis results drop the
    audited plan ([Mpart.result] lost its [plan] field) and prefix
    summaries drop the co-excitation relation, the signal names and
    the condition count, changing the marshal layout of every
    ["synth"] and ["prefix"] entry.  v9 → v10: state graphs keep their
    edges as three flat int arrays with CSR successor and predecessor
    indexes instead of an edge-record array and per-state edge lists
    ([Sg.t] changed fields, changing the marshal layout of every entry
    embedding a graph).  Within v10 the per-module ["module-csc"] and
    per-cover ["cover"] stages were dropped: nothing reads or writes
    them any more, no other entry changed, and old ones age out under
    the size bound.  v10 → v11: synthesis judges implementability once,
    after minimization; the ["synth"] fingerprint does not cover that
    policy, so a v10 entry could replay a result the new flow would
    not compute. *)

val open_dir : ?max_bytes:int -> string -> t
(** [open_dir dir] opens (creating directories as needed) the store
    rooted at [dir].  [max_bytes] bounds the total entry size (default
    512 MiB; [0] evicts everything, which degrades every lookup to a
    miss but stays correct). *)

val dir : t -> string
(** The root directory the store was opened at. *)

val get : t -> string -> 'a option
(** [get store key] returns the entry stored under [key], or [None] on
    absence, truncation, or corruption (checksum mismatch).  Records
    exactly one {!Counter} hit or miss. *)

val put : t -> string -> 'a -> unit
(** [put store key v] durably publishes [v] under [key]
    (write-to-temp + atomic rename), then enforces the size bound.
    I/O failures (full or read-only disk) are logged and ignored: the
    cache is an accelerator, never a correctness dependency. *)

val clear : t -> unit
(** Remove every entry of the current schema version. *)

val entries : t -> int
(** Number of live entries. *)

val total_bytes : t -> int
(** Total size of live entries in bytes, by one scan. *)

val memoize :
  t option ->
  stage:string ->
  params:(string * string) list ->
  (unit -> string) ->
  (unit -> 'a) ->
  'a
(** [memoize store ~stage ~params digest compute] is [compute ()],
    looked up first under [Cache_key.entry ~stage ~params (digest ())]
    and published there on a miss.  With no store, neither [digest] nor
    the store is touched.  Only values are cached: a raise from
    [compute] propagates and leaves no entry. *)
