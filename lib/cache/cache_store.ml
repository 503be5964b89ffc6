let src = Logs.Src.create "mpsyn.cache" ~doc:"content-addressed synthesis cache"

module Log = (val Logs.src_log src : Logs.LOG)

let schema_version = "mpsyn-cache/5"

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
}

let default_max_bytes = 512 * 1024 * 1024

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755
    with Sys_error _ when Sys.file_exists path -> () (* lost a race: fine *)
  end

let open_dir ?(max_bytes = default_max_bytes) root =
  let entry_dir = Filename.concat root version_dir in
  mkdir_p entry_dir;
  { root; entry_dir; max_bytes; evict_lock = Mutex.create () }

let of_env () =
  match Sys.getenv_opt "MPSYN_CACHE" with
  | None | Some "" -> None
  | Some d -> Some (open_dir d)

let dir t = t.root
let path_of t key = Filename.concat t.entry_dir key
let is_temp name = String.length name > 0 && name.[0] = '.'

let live_entries t =
  match Sys.readdir t.entry_dir with
  | exception Sys_error _ -> [||]
  | names -> Array.of_list (List.filter (fun n -> not (is_temp n)) (Array.to_list names))

let entries t = Array.length (live_entries t)

let stat_size path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

let total_bytes t =
  Array.fold_left
    (fun acc name -> acc + stat_size (Filename.concat t.entry_dir name))
    0 (live_entries t)

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

(* Least-recently-used eviction down to the size bound.  mtime is the
   recency clock ([get] touches on every hit).  Concurrent processes
   may race us deleting; ENOENT is fine. *)
let evict t =
  Mutex.lock t.evict_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.evict_lock)
    (fun () ->
      let entries =
        Array.to_list (live_entries t)
        |> List.filter_map (fun name ->
               let p = Filename.concat t.entry_dir name in
               match Unix.stat p with
               | { Unix.st_size; st_mtime; _ } -> Some (p, st_size, st_mtime)
               | exception Unix.Unix_error _ -> None)
      in
      let total = List.fold_left (fun a (_, s, _) -> a + s) 0 entries in
      if total > t.max_bytes then begin
        let oldest_first =
          List.sort (fun (_, _, a) (_, _, b) -> compare a b) entries
        in
        let excess = ref (total - t.max_bytes) in
        List.iter
          (fun (p, size, _) ->
            if !excess > 0 then begin
              (try Sys.remove p with Sys_error _ -> ());
              excess := !excess - size
            end)
          oldest_first
      end)

let put t key v =
  match
    let payload = Marshal.to_string v [] in
    let tmp = temp_path t in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc schema_version;
        output_char oc '\n';
        output_string oc (Digest.to_hex (Digest.string payload));
        output_char oc '\n';
        output_string oc payload);
    Sys.rename tmp (path_of t key)
  with
  | () -> evict t
  | exception (Sys_error _ | Unix.Unix_error _ as e) ->
    (* Disk full, read-only mount, racing delete of the entry dir: a
       cache that cannot persist silently stops accelerating. *)
    Log.warn (fun m -> m "cache write for %s failed (%s)" key (Printexc.to_string e))

let clear t =
  Array.iter
    (fun name ->
      try Sys.remove (Filename.concat t.entry_dir name) with Sys_error _ -> ())
    (match Sys.readdir t.entry_dir with
    | names -> names
    | exception Sys_error _ -> [||])
