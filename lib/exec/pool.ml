(* A single global queue of ready tasks, served by worker domains that
   are spawned on first parallel use and joined at process exit.  Every
   [map] call forms a batch; the calling domain enqueues the batch's
   tasks and then *helps*: it keeps executing queued tasks (its own or
   any other batch's) until its batch has drained.  Helping is what
   makes nested maps safe — a worker running one file's synthesis that
   itself fans out module projections can always make progress on the
   nested batch with its own two hands, even when every other worker is
   busy, so there is no execution state in which all executors wait. *)

let env_jobs () =
  match Sys.getenv_opt "MPSYN_JOBS" with
  | None | Some "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | Some _ | None -> None)

let override = Atomic.make 0 (* 0 = unset *)

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set override n

let default_jobs () =
  let n = Atomic.get override in
  if n > 0 then n
  else
    match env_jobs () with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Global queue and workers                                            *)
(* ------------------------------------------------------------------ *)

type task = { run : unit -> unit }

let qmutex = Mutex.create ()
let qcond = Condition.create () (* work available (or stopping) *)
let queue : task Queue.t = Queue.create ()
let stopping = ref false (* guarded by qmutex *)
let workers : unit Domain.t list ref = ref [] (* guarded by qmutex *)
let worker_count = ref 0 (* guarded by qmutex *)

(* The OCaml runtime caps live domains (128 in 5.1); stay far below it
   so client code can still spawn domains of its own. *)
let max_workers = 61

let worker () =
  let rec loop () =
    Mutex.lock qmutex;
    let rec next () =
      if !stopping then None
      else
        match Queue.take_opt queue with
        | Some t -> Some t
        | None ->
          Condition.wait qcond qmutex;
          next ()
    in
    let t = next () in
    Mutex.unlock qmutex;
    match t with
    | None -> ()
    | Some t ->
      t.run ();
      loop ()
  in
  loop ()

(* Joining at exit keeps the runtime from tearing down while workers
   sit in [Condition.wait].  Maps are synchronous, so the queue is
   necessarily empty by the time the main domain reaches [at_exit]. *)
let shutdown () =
  Mutex.lock qmutex;
  stopping := true;
  Condition.broadcast qcond;
  let ds = !workers in
  workers := [];
  worker_count := 0;
  Mutex.unlock qmutex;
  List.iter Domain.join ds;
  Mutex.lock qmutex;
  stopping := false;
  Mutex.unlock qmutex

let () = at_exit shutdown

let n_workers () =
  Mutex.lock qmutex;
  let n = !worker_count in
  Mutex.unlock qmutex;
  n

(* Grow the pool to [n] workers (monotone; spawn failures are absorbed:
   the caller always helps, so fewer workers only means less overlap). *)
let ensure_workers n =
  Mutex.lock qmutex;
  let n = min n max_workers in
  while !worker_count < n do
    match Domain.spawn worker with
    | d ->
      workers := d :: !workers;
      incr worker_count
    | exception _ -> worker_count := n (* stop trying *)
  done;
  Mutex.unlock qmutex

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

type batch = {
  bmutex : Mutex.t;
  bcond : Condition.t; (* signalled when the batch fully drains *)
  mutable remaining : int;
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
      (* lowest-indexed failure so far; once set, still-pending tasks
         of the batch with a higher index are drained without running *)
}

let parallel_map ~jobs f arr =
  let n = Array.length arr in
  ensure_workers (min jobs n - 1);
  let results = Array.make n None in
  let b =
    {
      bmutex = Mutex.create ();
      bcond = Condition.create ();
      remaining = n;
      failed = None;
    }
  in
  (* Only a failure at a lower index cancels task [i]: the lowest-indexed
     failing task always runs, so its exception is the one surfaced
     whatever order the domains take tasks in. *)
  let exec i =
    let cancelled =
      Mutex.lock b.bmutex;
      let c = match b.failed with Some (j, _, _) -> j < i | None -> false in
      Mutex.unlock b.bmutex;
      c
    in
    (if not cancelled then
       match f arr.(i) with
       | r -> results.(i) <- Some r
       | exception e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock b.bmutex;
         (match b.failed with
         | Some (j, _, _) when j <= i -> ()
         | _ -> b.failed <- Some (i, e, bt));
         Mutex.unlock b.bmutex);
    Mutex.lock b.bmutex;
    b.remaining <- b.remaining - 1;
    if b.remaining = 0 then Condition.broadcast b.bcond;
    Mutex.unlock b.bmutex
  in
  Mutex.lock qmutex;
  for i = 0 to n - 1 do
    Queue.add { run = (fun () -> exec i) } queue
  done;
  Condition.broadcast qcond;
  Mutex.unlock qmutex;
  (* Help until this batch drains.  Tasks taken here may belong to any
     batch; running a foreign task while waiting is still progress and
     cannot block this batch, whose tasks are by then all in flight on
     other domains. *)
  let batch_done () =
    Mutex.lock b.bmutex;
    let d = b.remaining = 0 in
    Mutex.unlock b.bmutex;
    d
  in
  let rec help () =
    if not (batch_done ()) then begin
      Mutex.lock qmutex;
      let t = Queue.take_opt queue in
      Mutex.unlock qmutex;
      match t with
      | Some t ->
        t.run ();
        help ()
      | None ->
        (* Queue empty: every task of this batch is running on some
           domain; sleep until the drain broadcast.  Re-checking
           [remaining] under the lock before waiting closes the race
           with a concurrent final decrement. *)
        Mutex.lock b.bmutex;
        if b.remaining > 0 then Condition.wait b.bcond b.bmutex;
        Mutex.unlock b.bmutex;
        help ()
    end
  in
  help ();
  match b.failed with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
    Array.map (function Some r -> r | None -> assert false) results

let map ?jobs f arr =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  if jobs = 1 || Array.length arr <= 1 then Array.map f arr
  else parallel_map ~jobs f arr

let map_list ?jobs f l = Array.to_list (map ?jobs f (Array.of_list l))
let map_filter ?jobs f l = List.filter_map Fun.id (map_list ?jobs f l)
