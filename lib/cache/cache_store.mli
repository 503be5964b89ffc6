(** Content-addressed, on-disk memoization store (schema [mpsyn-cache/5]).

    One entry per file under [DIR/5/] (the subdirectory is the schema
    major version: bumping {!schema_version} orphans every old entry at
    once — explicit wholesale invalidation).  An entry is:

    {v
    mpsyn-cache/5\n
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
    - {b bounded}: after each write the store evicts
      least-recently-used entries (reads touch mtimes) until the total
      size is back under [max_bytes].

    Typing discipline: [get] trusts the caller to read an entry with
    the type it was written at.  Keys come from {!Cache_key.entry},
    whose [stage] name pins the value type, so distinct types can never
    share a key. *)

type t

val schema_version : string
(** ["mpsyn-cache/5"].  v1 → v2: whole-synthesis entries now carry the
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
    layout of every ["prefix"] entry. *)

val open_dir : ?max_bytes:int -> string -> t
(** [open_dir dir] opens (creating directories as needed) the store
    rooted at [dir].  [max_bytes] bounds the total entry size (default
    512 MiB; [0] evicts everything, which degrades every lookup to a
    miss but stays correct). *)

val of_env : unit -> t option
(** The store named by the [MPSYN_CACHE] environment variable, if set
    and non-empty. *)

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
(** Total size of live entries in bytes. *)
