let src = Logs.Src.create "mpsyn.cache" ~doc:"content-addressed synthesis cache"

module Log = (val Logs.src_log src : Logs.LOG)

let schema_version = "mpsyn-cache/11"

(* The schema major version doubles as the entry subdirectory, so a
   version bump orphans (and [clear] ignores) every old entry. *)
let version_dir =
  match String.rindex_opt schema_version '/' with
  | Some i ->
    String.sub schema_version (i + 1) (String.length schema_version - i - 1)
  | None -> schema_version

type t = {
  root : string; (* as given to open_dir *)
  entry_dir : string; (* root/<version> *)
  max_bytes : int;
  evict_lock : Mutex.t; (* one evictor at a time within this process *)
  estimate : int Atomic.t;
      (* bytes of live entries: the last scan's total plus every byte
         this process wrote since *)
}

let default_max_bytes = 512 * 1024 * 1024

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.file_exists path -> () (* lost a race: fine *)
  end

let is_temp name = String.length name > 0 && name.[0] = '.'

let live_entries entry_dir =
  match Sys.readdir entry_dir with
  | exception Sys_error _ -> [||]
  | names -> Array.of_list (List.filter (fun n -> not (is_temp n)) (Array.to_list names))

(* Every live entry's path, size and mtime: one listing and one stat
   per entry, counted as one {!Counter.cache_scan}.  Concurrent
   processes may delete entries under us; a vanished one is skipped. *)
let scan entry_dir =
  Counter.bump Counter.cache_scan;
  Array.to_list (live_entries entry_dir)
  |> List.filter_map (fun name ->
         let p = Filename.concat entry_dir name in
         match Unix.stat p with
         | { Unix.st_size; st_mtime; _ } -> Some (p, st_size, st_mtime)
         | exception Unix.Unix_error _ -> None)

let sum_sizes = List.fold_left (fun a (_, s, _) -> a + s) 0

let open_dir ?(max_bytes = default_max_bytes) root =
  let entry_dir = Filename.concat root version_dir in
  mkdir_p entry_dir;
  let estimate = Atomic.make (sum_sizes (scan entry_dir)) in
  { root; entry_dir; max_bytes; evict_lock = Mutex.create (); estimate }

let dir t = t.root
let path_of t key = Filename.concat t.entry_dir key
let entries t = Array.length (live_entries t.entry_dir)

let total_bytes t = sum_sizes (scan t.entry_dir)

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let drop_corrupt t key reason =
  Log.warn (fun m -> m "cache entry %s is %s; dropped, treated as a miss" key reason);
  (try Sys.remove (path_of t key) with Sys_error _ -> ())

(* Parse one entry; [Error reason] for anything short of a verified
   payload.  Every failure mode — wrong magic (foreign file or version
   skew), truncation, checksum mismatch, unmarshalable bytes — is a
   miss, never an exception escaping to the caller. *)
let decode body =
  match String.index_opt body '\n' with
  | None -> Error "truncated (no header)"
  | Some nl1 -> (
    if String.sub body 0 nl1 <> schema_version then Error "foreign or stale (bad magic)"
    else
      match String.index_from_opt body (nl1 + 1) '\n' with
      | None -> Error "truncated (no checksum)"
      | Some nl2 ->
        let sum = String.sub body (nl1 + 1) (nl2 - nl1 - 1) in
        let payload = String.sub body (nl2 + 1) (String.length body - nl2 - 1) in
        if Digest.to_hex (Digest.string payload) <> sum then
          Error "corrupt (checksum mismatch)"
        else
          (* The checksum already vouches for the bytes; Marshal can
             still reject them (e.g. an entry written by an different
             compiler build), which is just one more way to miss. *)
          (try Ok (Marshal.from_string payload 0)
           with _ -> Error "unreadable (marshal format)"))

let touch path =
  try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let get t key =
  let path = path_of t key in
  match read_file path with
  | exception Sys_error _ ->
    Counter.bump Counter.cache_miss;
    None
  | body -> (
    match decode body with
    | Ok v ->
      Counter.bump Counter.cache_hit;
      touch path; (* LRU: a served entry is recent again *)
      Some v
    | Error reason ->
      drop_corrupt t key reason;
      Counter.bump Counter.cache_miss;
      None)

(* ------------------------------------------------------------------ *)
(* Writing and eviction                                                *)
(* ------------------------------------------------------------------ *)

let temp_counter = Atomic.make 0

let temp_path t =
  Filename.concat t.entry_dir
    (Printf.sprintf ".tmp.%d.%d.%d" (Unix.getpid ())
       (Domain.self () :> int)
       (Atomic.fetch_and_add temp_counter 1))

(* Least-recently-used eviction, run when the estimate passes the size
   bound: one scan, then the oldest entries go until the total is three
   quarters of the bound, so a full store scans once per quarter of the
   bound written, not once per write.  mtime is the recency clock ([get]
   touches on every hit).  Concurrent processes may race us deleting;
   ENOENT is fine. *)
let evict t =
  Mutex.lock t.evict_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.evict_lock)
    (fun () ->
      (* another domain may have scanned while we waited for the lock *)
      if Atomic.get t.estimate > t.max_bytes then begin
        let entries = scan t.entry_dir in
        let total = ref (sum_sizes entries) in
        if !total > t.max_bytes then begin
          let low_water = t.max_bytes - (t.max_bytes / 4) in
          List.sort (fun (_, _, a) (_, _, b) -> compare a b) entries
          |> List.iter (fun (p, size, _) ->
                 if !total > low_water then begin
                   (try Sys.remove p with Sys_error _ -> ());
                   total := !total - size
                 end)
        end;
        Atomic.set t.estimate !total
      end)

let put t key v =
  let tmp = temp_path t in
  match
    let payload = Marshal.to_string v [] in
    let sum = Digest.to_hex (Digest.string payload) in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc schema_version;
        output_char oc '\n';
        output_string oc sum;
        output_char oc '\n';
        output_string oc payload);
    Sys.rename tmp (path_of t key);
    String.length schema_version + String.length sum + String.length payload + 2
  with
  | size ->
    (* an overwritten key counts twice until the next scan: the
       estimate errs high, which only brings that scan forward *)
    if Atomic.fetch_and_add t.estimate size + size > t.max_bytes then evict t
  | exception (Sys_error _ | Unix.Unix_error _ as e) ->
    (* Disk full, read-only mount, racing delete of the entry dir: a
       cache that cannot persist stops accelerating.  [evict] never sees
       a temp file, so a failed write removes its own. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    Log.warn (fun m -> m "cache write for %s failed (%s)" key (Printexc.to_string e))

let clear t =
  Array.iter
    (fun name ->
      try Sys.remove (Filename.concat t.entry_dir name) with Sys_error _ -> ())
    (match Sys.readdir t.entry_dir with
    | names -> names
    | exception Sys_error _ -> [||]);
  Atomic.set t.estimate 0

let memoize store ~stage ~params digest compute =
  match store with
  | None -> compute ()
  | Some t -> (
    let key = Cache_key.entry ~stage ~params (digest ()) in
    match get t key with
    | Some v -> v
    | None ->
      let v = compute () in
      put t key v;
      v)
