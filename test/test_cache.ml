(* The content-addressed synthesis cache, proven correct differentially:
   whatever the cache state — cold, warm, shared between --jobs widths,
   evicted down to nothing, or corrupted on disk — synthesis must
   produce the same bytes as the uncached sequential reference, and the
   canonical STG digest the keys hang off must be exactly as stable as
   the specification's semantics (invariant under reordering and
   round-trips, distinct under any single-arc edit). *)

let data_dir = Filename.concat ".." "data"

let g_files () =
  Sys.readdir data_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".g")
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* ------------------------------------------------------------------ *)
(* Throwaway stores                                                    *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "mpsyn-test-cache.%d.%d" (Unix.getpid ()) !dir_counter)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun n -> remove_tree (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let with_store ?max_bytes f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () -> f dir (Cache_store.open_dir ?max_bytes dir))

(* The entry subdirectory is the schema major version ("11" for
   mpsyn-cache/11) — derived here the same way the store derives it, so
   the corruption tests can reach the files without new API surface. *)
let entry_dir root =
  let v = Cache_store.schema_version in
  let major =
    match String.rindex_opt v '/' with
    | Some i -> String.sub v (i + 1) (String.length v - i - 1)
    | None -> v
  in
  Filename.concat root major

let entry_files root =
  match Sys.readdir (entry_dir root) with
  | files ->
    Array.to_list files
    |> List.filter (fun n -> n = "" || n.[0] <> '.')
    |> List.map (Filename.concat (entry_dir root))
  | exception Sys_error _ -> []

let corrupt_byte path =
  let body = Bytes.of_string (read_file path) in
  let i = Bytes.length body / 2 in
  Bytes.set body i (Char.chr (Char.code (Bytes.get body i) lxor 0xff));
  write_file path (Bytes.to_string body)

(* ------------------------------------------------------------------ *)
(* Canonical STG digest: the content address                           *)
(* ------------------------------------------------------------------ *)

let shuffle rand a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Permute everything the digest must not depend on: the arc lines
   between .graph and .marking, and the token order inside the marking
   braces.  Signal declaration order stays put — signal indices give
   state codes their meaning, so .inputs/.outputs order is semantics,
   not presentation. *)
let permuted_g rand text =
  let lines = String.split_on_char '\n' text in
  let is_marking l = String.length l >= 8 && String.sub l 0 8 = ".marking" in
  let rec split_head acc = function
    | [] -> (List.rev acc, [])
    | l :: rest when String.trim l = ".graph" -> (List.rev (l :: acc), rest)
    | l :: rest -> split_head (l :: acc) rest
  in
  let head, rest = split_head [] lines in
  let rec split_arcs acc = function
    | [] -> (List.rev acc, [])
    | l :: rest when is_marking (String.trim l) -> (List.rev acc, l :: rest)
    | l :: rest -> split_arcs (l :: acc) rest
  in
  let arcs, tail = split_arcs [] rest in
  let arcs = Array.of_list arcs in
  shuffle rand arcs;
  let tail =
    List.map
      (fun l ->
        if not (is_marking (String.trim l)) then l
        else
          match (String.index_opt l '{', String.index_opt l '}') with
          | Some o, Some c when c > o ->
            let toks =
              String.sub l (o + 1) (c - o - 1)
              |> String.split_on_char ' '
              |> List.filter (fun t -> t <> "")
              |> Array.of_list
            in
            shuffle rand toks;
            Printf.sprintf "%s{ %s }%s" (String.sub l 0 o)
              (String.concat " " (Array.to_list toks))
              (String.sub l (c + 1) (String.length l - c - 1))
          | _ -> l)
      tail
  in
  String.concat "\n" (head @ Array.to_list arcs @ tail)

let test_digest_reorder () =
  let rand = Qseed.state () in
  List.iter
    (fun file ->
      let path = Filename.concat data_dir file in
      let reference = Cache_key.stg_digest (Gformat.parse_file path) in
      let text = read_file path in
      for i = 1 to 3 do
        let permuted = permuted_g rand text in
        let d =
          Cache_key.stg_digest
            (Gformat.parse_string ~name:(Filename.chop_extension file) permuted)
        in
        Alcotest.(check string)
          (Printf.sprintf "%s: digest invariant under permutation %d" file i)
          reference d
      done)
    (g_files ())

let test_digest_roundtrip () =
  List.iter
    (fun file ->
      let stg = Gformat.parse_file (Filename.concat data_dir file) in
      let canonical = Cache_key.canonical_g stg in
      let reparsed = Gformat.parse_string ~name:(Stg.name stg) canonical in
      Alcotest.(check string)
        (file ^ ": digest survives a .g round-trip")
        (Cache_key.stg_digest stg)
        (Cache_key.stg_digest reparsed);
      Alcotest.(check string)
        (file ^ ": canonical form is idempotent")
        canonical
        (Cache_key.canonical_g reparsed))
    (g_files ())

let test_digest_roundtrip_random () =
  let rand = Qseed.state () in
  for i = 1 to 20 do
    let stg = Bench_gen.random ~rand in
    let reparsed = Gformat.parse_string ~name:(Stg.name stg) (Gformat.to_string stg) in
    Alcotest.(check string)
      (Printf.sprintf "random STG %d: digest survives a round-trip" i)
      (Cache_key.stg_digest stg)
      (Cache_key.stg_digest reparsed)
  done

(* Dropping any single arc line is a different net and must be a
   different address — a cache that cannot tell them apart would serve
   one specification's circuit for another. *)
let test_digest_mutation () =
  let rand = Qseed.state () in
  List.iter
    (fun file ->
      let path = Filename.concat data_dir file in
      let reference = Cache_key.stg_digest (Gformat.parse_file path) in
      let lines = String.split_on_char '\n' (read_file path) in
      let is_arc l =
        let l = String.trim l in
        l <> "" && l.[0] <> '.' && l.[0] <> '#'
      in
      let arc_positions =
        List.filteri (fun _ _ -> true) lines
        |> List.mapi (fun i l -> (i, l))
        |> List.filter (fun (_, l) -> is_arc l)
        |> List.map fst
      in
      (* three seeded single-arc deletions per file keeps the suite
         fast while every file still exercises the property *)
      for _ = 1 to 3 do
        let victim =
          List.nth arc_positions
            (Random.State.int rand (List.length arc_positions))
        in
        let mutated =
          String.concat "\n"
            (List.filteri (fun i _ -> i <> victim) lines)
        in
        match Gformat.parse_string ~name:"mutant" mutated with
        | mutant ->
          if Cache_key.stg_digest mutant = reference then
            Alcotest.failf
              "%s: deleting arc line %d left the digest unchanged" file victim
        | exception Gformat.Parse_error _ -> () (* unparsable mutant: fine *)
      done)
    (g_files ())

(* Different stages or different option fingerprints must never share
   an entry even for identical content. *)
let test_key_separation () =
  let d = Cache_key.string_digest "same content" in
  let k1 = Cache_key.entry ~stage:"synth" ~params:[ ("a", "1") ] d in
  let k2 = Cache_key.entry ~stage:"sg" ~params:[ ("a", "1") ] d in
  let k3 = Cache_key.entry ~stage:"synth" ~params:[ ("a", "2") ] d in
  let k4 = Cache_key.entry ~stage:"synth" ~params:[ ("a", "1") ] d in
  Alcotest.(check bool) "stages separate" false (k1 = k2);
  Alcotest.(check bool) "fingerprints separate" false (k1 = k3);
  Alcotest.(check string) "same inputs, same key" k1 k4;
  Alcotest.(check string) "params order-insensitive"
    (Cache_key.entry ~stage:"s" ~params:[ ("a", "1"); ("b", "2") ] d)
    (Cache_key.entry ~stage:"s" ~params:[ ("b", "2"); ("a", "1") ] d)

(* ------------------------------------------------------------------ *)
(* Store robustness: truncation, corruption, eviction                  *)
(* ------------------------------------------------------------------ *)

(* Count the diagnostics the store logs on corrupt entries, so the
   tests can assert a drop was reported, not silent. *)
let log_warnings = ref 0

let () =
  Logs.set_reporter
    {
      Logs.report =
        (fun _src level ~over k msgf ->
          if level = Logs.Warning then incr log_warnings;
          msgf (fun ?header:_ ?tags:_ fmt ->
              Format.ikfprintf
                (fun _ -> over (); k ())
                Format.str_formatter fmt));
    }

let test_store_roundtrip () =
  with_store (fun _dir store ->
      Counter.reset Counter.cache_hit;
      Counter.reset Counter.cache_miss;
      Alcotest.(check (option (list int))) "absent key misses" None
        (Cache_store.get store "absent");
      Cache_store.put store "k1" [ 1; 2; 3 ];
      Alcotest.(check (option (list int))) "roundtrip" (Some [ 1; 2; 3 ])
        (Cache_store.get store "k1");
      Alcotest.(check int) "one hit" 1 (Counter.get Counter.cache_hit);
      Alcotest.(check int) "one miss" 1 (Counter.get Counter.cache_miss);
      Cache_store.put store "k1" [ 9 ];
      Alcotest.(check (option (list int))) "overwrite wins" (Some [ 9 ])
        (Cache_store.get store "k1"))

let test_store_truncation () =
  with_store (fun dir store ->
      Cache_store.put store "k" (Array.init 200 string_of_int);
      (match entry_files dir with
      | [ path ] -> Unix.truncate path 7
      | files -> Alcotest.failf "expected 1 entry file, found %d" (List.length files));
      let before = !log_warnings in
      Counter.reset Counter.cache_miss;
      Alcotest.(check bool) "truncated entry misses" true
        (Cache_store.get store "k" = (None : string array option));
      Alcotest.(check int) "miss recorded" 1 (Counter.get Counter.cache_miss);
      Alcotest.(check bool) "drop was logged" true (!log_warnings > before);
      Alcotest.(check int) "corrupt entry deleted" 0
        (List.length (entry_files dir));
      (* the slot is usable again immediately *)
      Cache_store.put store "k" [| "fresh" |];
      Alcotest.(check bool) "re-put after truncation" true
        (Cache_store.get store "k" = Some [| "fresh" |]))

let test_store_bitflip () =
  with_store (fun dir store ->
      Cache_store.put store "k" (String.make 512 'x');
      List.iter corrupt_byte (entry_files dir);
      Alcotest.(check (option string)) "bit-flipped entry misses" None
        (Cache_store.get store "k");
      Alcotest.(check int) "corrupt entry deleted" 0
        (List.length (entry_files dir)))

let test_store_foreign () =
  with_store (fun dir store ->
      write_file (Filename.concat (entry_dir dir) "k") "not a cache entry";
      Alcotest.(check (option string)) "foreign file misses" None
        (Cache_store.get store "k"))

(* A write whose rename fails (the entry's final path is a non-empty
   directory, which a root user cannot overwrite either) leaves the
   lookup a logged miss: [memoize] returns the computed value, logs the
   failed write, and removes its temp file, which [evict] would never
   see. *)
let test_store_failed_rename () =
  with_store (fun dir store ->
      let digest = Cache_key.string_digest "failed rename" in
      let key = Cache_key.entry ~stage:"t" ~params:[] digest in
      let final = Filename.concat (entry_dir dir) key in
      Unix.mkdir final 0o755;
      write_file (Filename.concat final "occupant") "x";
      let temps () =
        Sys.readdir (entry_dir dir) |> Array.to_list
        |> List.filter (fun n -> String.starts_with ~prefix:".tmp." n)
      in
      let before = !log_warnings and computed = ref 0 in
      Counter.reset Counter.cache_miss;
      Counter.reset Counter.cache_hit;
      let v =
        Cache_store.memoize (Some store) ~stage:"t" ~params:[]
          (fun () -> digest)
          (fun () ->
            incr computed;
            [ 4; 2 ])
      in
      Alcotest.(check (list int)) "the uncached value" [ 4; 2 ] v;
      Alcotest.(check int) "computed once" 1 !computed;
      Alcotest.(check int) "one miss" 1 (Counter.get Counter.cache_miss);
      Alcotest.(check int) "no hit" 0 (Counter.get Counter.cache_hit);
      Alcotest.(check bool) "the failed write was logged" true
        (!log_warnings > before);
      Alcotest.(check (list string)) "no temp file left" [] (temps ());
      Alcotest.(check bool) "the directory is untouched" true
        (Sys.file_exists (Filename.concat final "occupant")))

let test_store_eviction () =
  with_store ~max_bytes:1 (fun _dir store ->
      Cache_store.put store "a" (String.make 100 'a');
      Cache_store.put store "b" (String.make 100 'b');
      (* every write exceeds the bound, so the store keeps evicting down
         to (at most) the newest entry; correctness only needs that gets
         keep working — they just miss *)
      Alcotest.(check bool) "size bound enforced" true
        (Cache_store.entries store <= 1);
      ignore (Cache_store.get store "a" : string option);
      ignore (Cache_store.get store "b" : string option));
  with_store ~max_bytes:100_000 (fun _dir store ->
      for i = 1 to 20 do
        Cache_store.put store (string_of_int i) (String.make 10_000 'x')
      done;
      Alcotest.(check bool) "under the bound" true
        (Cache_store.total_bytes store <= 100_000);
      Alcotest.(check bool) "newest survives LRU" true
        (Cache_store.get store "20" = Some (String.make 10_000 'x')))

(* A write lists and stats the entry directory only when the store's
   running size estimate passes the bound.  Counted, not timed: 4,000
   puts far under the bound scan never, and 4,000 puts that overflow a
   small bound scan about once per quarter of the bound written (each
   scan evicts down to three quarters of it), not once per put. *)
let test_store_scans () =
  let scans f =
    let before = Counter.get Counter.cache_scan in
    f ();
    Counter.get Counter.cache_scan - before
  in
  let puts store =
    for i = 1 to 4_000 do
      Cache_store.put store (string_of_int i) (String.make 200 'v')
    done
  in
  with_store (fun _dir store ->
      Alcotest.(check int) "under the bound: no scan" 0
        (scans (fun () -> puts store));
      Alcotest.(check int) "every entry kept" 4_000 (Cache_store.entries store));
  with_store ~max_bytes:100_000 (fun _dir store ->
      (* an entry is about 270 bytes, so the puts write about 1.1 MB:
         some 40 scans *)
      let n = scans (fun () -> puts store) in
      Alcotest.(check bool)
        (Printf.sprintf "over the bound: %d scans, not one per put" n)
        true
        (n >= 1 && n <= 100);
      Alcotest.(check bool) "under the bound" true
        (Cache_store.total_bytes store <= 100_000))

let test_store_clear () =
  with_store (fun _dir store ->
      Cache_store.put store "a" 1;
      Cache_store.put store "b" 2;
      Cache_store.clear store;
      Alcotest.(check int) "cleared" 0 (Cache_store.entries store);
      Alcotest.(check (option int)) "post-clear miss" None
        (Cache_store.get store "a"))

(* ------------------------------------------------------------------ *)
(* Differential: cold vs warm over the whole shipped suite             *)
(* ------------------------------------------------------------------ *)

let verilog stg (r : Mpart.result) =
  let inputs = List.map (Stg.signal_name stg) (Stg.inputs stg) in
  Netlist.to_verilog
    (Netlist.of_functions ~name:(Stg.name stg) ~inputs r.Mpart.functions)

let netlist stg (r : Mpart.result) =
  let inputs = List.map (Stg.signal_name stg) (Stg.inputs stg) in
  Netlist.of_functions ~name:(Stg.name stg) ~inputs r.Mpart.functions

let synth ?cache ~jobs stg =
  Mpart.synthesize ~config:{ Mpart.default_config with jobs; cache } stg

(* The full lint + hazard evidence for a result, rendered; cold and
   warm runs must agree on every byte of it, not just the netlist. *)
let reports stg (r : Mpart.result) =
  let nl = netlist stg r in
  let hz = Hazard_check.analyze ~expanded:r.Mpart.expanded ~functions:r.Mpart.functions nl in
  Format.asprintf "%a@.%s@.%a"
    Diagnostic.pp (Lint.run_netlist nl)
    (Hazard_check.verdict_name hz)
    (Fmt.list Diagnostic.pp_diag) hz.Hazard_check.diags

let test_cold_warm_suite () =
  with_store (fun dir store ->
      List.iter
        (fun file ->
          let stg = Gformat.parse_file (Filename.concat data_dir file) in
          let reference = verilog stg (synth ~jobs:1 stg) in
          let rc = synth ~cache:store ~jobs:1 stg in
          Alcotest.(check string)
            (file ^ ": cold = uncached") reference (verilog stg rc);
          Counter.reset Counter.cache_hit;
          let rw = synth ~cache:store ~jobs:1 stg in
          Alcotest.(check string)
            (file ^ ": warm = uncached") reference (verilog stg rw);
          Alcotest.(check bool)
            (file ^ ": warm run hit the cache") true (Counter.get Counter.cache_hit > 0);
          let rw4 = synth ~cache:store ~jobs:4 stg in
          Alcotest.(check string)
            (file ^ ": warm at jobs=4 = uncached") reference (verilog stg rw4);
          Alcotest.(check string)
            (file ^ ": lint/hazard reports identical cold vs warm")
            (reports stg rc) (reports stg rw))
        (g_files ());
      (* one whole result and one state graph per specification, and
         nothing per module or per cover *)
      let stage path = List.hd (String.split_on_char '-' (Filename.basename path)) in
      let stages = List.map stage (entry_files dir) in
      Alcotest.(check (list string)) "only sg and synth entries" [ "sg"; "synth" ]
        (List.sort_uniq compare stages);
      Alcotest.(check int) "two entries per specification"
        (2 * List.length (g_files ()))
        (List.length stages))

(* A cache evicted down to nothing is pure overhead, never wrong. *)
let test_evicting_cache_correct () =
  with_store ~max_bytes:1 (fun _dir store ->
      List.iter
        (fun file ->
          let stg = Gformat.parse_file (Filename.concat data_dir file) in
          let reference = verilog stg (synth ~jobs:1 stg) in
          Alcotest.(check string)
            (file ^ ": run 1 under eviction") reference
            (verilog stg (synth ~cache:store ~jobs:1 stg));
          Alcotest.(check string)
            (file ^ ": run 2 under eviction") reference
            (verilog stg (synth ~cache:store ~jobs:1 stg)))
        [ "atod.g"; "fifo.g"; "nak-pa.g" ])

(* Every entry damaged mid-suite: the warm run degrades to a cold one,
   byte-identically. *)
let test_corrupted_cache_correct () =
  with_store (fun dir store ->
      List.iter
        (fun file ->
          let stg = Gformat.parse_file (Filename.concat data_dir file) in
          let reference = verilog stg (synth ~jobs:1 stg) in
          Alcotest.(check string)
            (file ^ ": populate") reference
            (verilog stg (synth ~cache:store ~jobs:1 stg));
          List.iter corrupt_byte (entry_files dir);
          let warned_before = !log_warnings in
          Alcotest.(check string)
            (file ^ ": after corruption") reference
            (verilog stg (synth ~cache:store ~jobs:1 stg));
          (* hits can legitimately occur — the run re-puts entries and
             its later stages reuse them — but every damaged entry that
             was touched must have been dropped with a diagnostic, never
             decoded *)
          Alcotest.(check bool)
            (file ^ ": corrupt entries were logged as dropped") true
            (!log_warnings > warned_before))
        [ "atod.g"; "vbe4a.g" ])

(* The CLI's Logs reporter puts a dropped entry on stderr, while stdout
   still carries the cold bytes. *)
let mpsyn = Filename.concat ".." (Filename.concat "bin" "mpsyn.exe")

(* [run ?env args] runs the CLI under the [env] assignments (shell
   words, e.g. ["MPSYN_CACHE=..."]) with [MPSYN_CACHE] cleared
   otherwise; it returns the exit code, stdout and stderr. *)
let run ?(env = "MPSYN_CACHE=") args =
  let out = Filename.temp_file "mpsyn_cache" ".out"
  and err = Filename.temp_file "mpsyn_cache" ".err" in
  let code =
    Sys.command (Printf.sprintf "%s %s %s > %s 2> %s" env mpsyn args out err)
  in
  let o = read_file out and e = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, o, e)

let run_verilog dir file =
  run
    (Printf.sprintf "verilog --cache %s %s" (Filename.quote dir)
       (Filename.quote file))

let contains s pat =
  let n = String.length pat in
  let rec go i = i + n <= String.length s && (String.sub s i n = pat || go (i + 1)) in
  go 0

let test_cli_warns_on_corruption () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let file = Filename.concat data_dir "atod.g" in
      let code, cold, _ = run_verilog dir file in
      Alcotest.(check int) "cold run exits 0" 0 code;
      Alcotest.(check bool) "cold run wrote entries" true (entry_files dir <> []);
      List.iter corrupt_byte (entry_files dir);
      let code, warm, err = run_verilog dir file in
      Alcotest.(check int) "run over corrupt entries exits 0" 0 code;
      Alcotest.(check string) "stdout unchanged" cold warm;
      if not (contains err "dropped, treated as a miss") then
        Alcotest.failf "no drop warning on stderr:\n%s" err)

(* A cache directory that cannot be created is a usage error from
   either source: exit 2 with a message naming the source, no output
   and no uncaught exception. *)
let test_cli_uncreatable_cache () =
  let dir = "/dev/null/mpsyn-cache" and file = Filename.concat data_dir "mr1.g" in
  List.iter
    (fun cmd ->
      List.iter
        (fun (env, flag, source) ->
          let code, out, err = run ~env (Printf.sprintf "%s %s %s" cmd flag file) in
          let what = Printf.sprintf "%s via %s" cmd source in
          Alcotest.(check int) (what ^ ": exit 2") 2 code;
          Alcotest.(check string) (what ^ ": no stdout") "" out;
          if not (contains err ("mpsyn: " ^ source)) then
            Alcotest.failf "%s: stderr does not name %s:\n%s" what source err)
        [
          ("MPSYN_CACHE=", "--cache " ^ dir, "--cache " ^ dir);
          ("MPSYN_CACHE=" ^ dir, "", "MPSYN_CACHE=" ^ dir);
        ])
    [ "lint"; "verilog" ]

(* A store whose writes all fail degrades every lookup to a miss: with
   the version subdirectory replaced by a regular file (permissions do
   not stop a root user, a file in the way does), each command prints
   its uncached stdout, exits 0 and logs every failed write.  Synthesis
   writes only whole results, one [sg] and one [synth] entry. *)
let test_cli_failed_writes () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      Unix.mkdir dir 0o755;
      write_file (entry_dir dir) "";
      let file = Filename.concat data_dir "mr1.g" in
      List.iter
        (fun (cmd, stages) ->
          let _, reference, _ = run (Printf.sprintf "%s %s" cmd file) in
          let code, out, err =
            run (Printf.sprintf "%s --cache %s %s" cmd (Filename.quote dir) file)
          in
          Alcotest.(check int) (cmd ^ ": exit 0") 0 code;
          Alcotest.(check string) (cmd ^ ": uncached stdout") reference out;
          let failed =
            String.split_on_char '\n' err
            |> List.filter_map (fun line ->
                   match String.split_on_char ' ' line with
                   | _ :: _ :: "cache" :: "write" :: "for" :: key :: "failed" :: _ ->
                     Some (List.hd (String.split_on_char '-' key))
                   | _ -> None)
          in
          Alcotest.(check (list string)) (cmd ^ ": failed writes logged") stages
            (List.sort compare failed))
        [
          ("verilog", [ "sg"; "synth" ]);
          ("synth", [ "sg"; "synth" ]);
          ("lint --prefix --partition --json", [ "plan"; "prefix"; "sg" ]);
        ])

(* The verification oracle's cached explorations: a warm certificate
   must replay the cold one and stop simulating. *)
let test_oracle_warm () =
  with_store (fun _dir store ->
      let stg = Gformat.parse_file (Filename.concat data_dir "atod.g") in
      let impl = Oracle.impl_of_result (Mpart.synthesize stg) in
      let cold = Oracle.certify ~cache:store impl in
      let sim_before = Counter.get Counter.sim in
      Counter.reset Counter.cache_hit;
      let warm = Oracle.certify ~cache:store impl in
      Alcotest.(check bool) "cold certificate passes" true (Oracle.passed cold);
      Alcotest.(check bool) "warm certificate passes" true (Oracle.passed warm);
      Alcotest.(check bool) "warm certify hit the cache" true
        (Counter.get Counter.cache_hit > 0);
      Alcotest.(check int) "warm certify ran no simulation" sim_before
        (Counter.get Counter.sim);
      Alcotest.(check string) "reports render identically"
        (Format.asprintf "%a" Oracle.pp_report cold)
        (Format.asprintf "%a" Oracle.pp_report warm))

(* ------------------------------------------------------------------ *)
(* Concurrency: one directory, many writers                            *)
(* ------------------------------------------------------------------ *)

(* All 23 benchmarks synthesized concurrently against one shared store,
   twice — the first round races cold writers, the second mixes hits
   with leftover writes — and each netlist must equal the cold
   sequential reference. *)
let test_shared_store_concurrent () =
  with_store (fun _dir store ->
      let files = Array.of_list (g_files ()) in
      let stgs =
        Array.map (fun f -> Gformat.parse_file (Filename.concat data_dir f)) files
      in
      let reference = Array.map (fun stg -> verilog stg (synth ~jobs:1 stg)) stgs in
      for round = 1 to 2 do
        let got =
          Pool.map ~jobs:4
            (fun stg -> verilog stg (synth ~cache:store ~jobs:1 stg))
            stgs
        in
        Array.iteri
          (fun i v ->
            Alcotest.(check string)
              (Printf.sprintf "%s: concurrent round %d = sequential reference"
                 files.(i) round)
              reference.(i) v)
          got
      done)

(* Eight domains racing to publish the same key: rename-atomicity means
   everyone computes the same bytes and the store ends up valid. *)
let test_same_key_race () =
  with_store (fun _dir store ->
      let stg = Gformat.parse_file (Filename.concat data_dir "nak-pa.g") in
      let reference = verilog stg (synth ~jobs:1 stg) in
      let got =
        Pool.map ~jobs:4
          (fun stg -> verilog stg (synth ~cache:store ~jobs:1 stg))
          (Array.make 8 stg)
      in
      Array.iteri
        (fun i v ->
          Alcotest.(check string)
            (Printf.sprintf "racer %d matches the reference" i)
            reference v)
        got;
      (* whatever racer won the rename, the published entry is whole *)
      Counter.reset Counter.cache_hit;
      Alcotest.(check string) "entry valid after the race" reference
        (verilog stg (synth ~cache:store ~jobs:1 stg));
      Alcotest.(check bool) "and it was served from the cache" true
        (Counter.get Counter.cache_hit > 0))

let () =
  Qseed.announce ();
  if g_files () = [] then failwith "test_cache: no .g files under ../data";
  Alcotest.run "cache"
    [
      ( "canonical digest",
        [
          Alcotest.test_case "invariant under reordering" `Quick
            test_digest_reorder;
          Alcotest.test_case "invariant under .g round-trips" `Quick
            test_digest_roundtrip;
          Alcotest.test_case "round-trips on random STGs" `Quick
            test_digest_roundtrip_random;
          Alcotest.test_case "distinct under single-arc deletion" `Quick
            test_digest_mutation;
          Alcotest.test_case "stage/fingerprint key separation" `Quick
            test_key_separation;
        ] );
      ( "store robustness",
        [
          Alcotest.test_case "put/get roundtrip" `Quick test_store_roundtrip;
          Alcotest.test_case "truncated entry is a logged miss" `Quick
            test_store_truncation;
          Alcotest.test_case "bit-flipped entry is a miss" `Quick
            test_store_bitflip;
          Alcotest.test_case "foreign file is a miss" `Quick test_store_foreign;
          Alcotest.test_case "failed rename is a logged miss" `Quick
            test_store_failed_rename;
          Alcotest.test_case "LRU eviction enforces the bound" `Quick
            test_store_eviction;
          Alcotest.test_case "clear empties the store" `Quick test_store_clear;
          Alcotest.test_case "puts scan only past the bound" `Quick
            test_store_scans;
        ] );
      ( "cold vs warm differential",
        [
          Alcotest.test_case "all shipped benchmarks, jobs 1 and 4" `Slow
            test_cold_warm_suite;
          Alcotest.test_case "evicting cache stays correct" `Quick
            test_evicting_cache_correct;
          Alcotest.test_case "corrupted cache stays correct" `Quick
            test_corrupted_cache_correct;
          Alcotest.test_case "oracle warm certificate replays" `Quick
            test_oracle_warm;
          Alcotest.test_case "CLI warns on stderr about a corrupt entry"
            `Quick test_cli_warns_on_corruption;
          Alcotest.test_case "CLI rejects an uncreatable cache directory"
            `Quick test_cli_uncreatable_cache;
          Alcotest.test_case "CLI failed writes degrade to a miss" `Quick
            test_cli_failed_writes;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "23 benchmarks, one store, jobs=4" `Slow
            test_shared_store_concurrent;
          Alcotest.test_case "same-key publish race" `Quick test_same_key_race;
        ] );
    ]
