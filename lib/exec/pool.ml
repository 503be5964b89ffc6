(* One flat batch per [map] call.  The caller spawns [min jobs n - 1]
   workers; they and the caller claim task indices from one atomic
   counter, and the caller joins every worker before it returns, so no
   domain outlives the batch it was spawned for (an idle domain would
   still join every stop-the-world minor collection).  A [map] called
   from inside a task runs inline on that task's domain. *)

let jobs_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | Some _ | None -> None

let override = Atomic.make 0 (* 0 = unset *)

let set_default_jobs n =
  if n < 1 then invalid_arg "Pool.set_default_jobs: jobs must be >= 1";
  Atomic.set override n

let default_jobs () =
  let n = Atomic.get override in
  if n > 0 then n
  else
    match Option.bind (Sys.getenv_opt "MPSYN_JOBS") jobs_of_string with
    | Some n -> n
    | None -> Domain.recommended_domain_count ()

(* The OCaml runtime caps live domains (128 in 5.1); stay far below it
   so client code can still spawn domains of its own. *)
let max_workers = 61

let live = Atomic.make 0
let live_workers () = Atomic.get live

(* Set on a domain while it runs a batch's tasks. *)
let in_task = Domain.DLS.new_key (fun () -> false)

let parallel_map ~jobs f arr =
  let n = Array.length arr in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  (* the lowest-indexed failure so far *)
  let failed = Atomic.make None in
  let rec record i e bt =
    match Atomic.get failed with
    | Some (j, _, _) when j <= i -> ()
    | cur ->
      if not (Atomic.compare_and_set failed cur (Some (i, e, bt))) then
        record i e bt
  in
  (* Indices are claimed in increasing order, so once a failure is
     recorded every lower index has already been claimed and still
     runs: stopping there cancels only higher pending tasks, and the
     lowest failing task always runs. *)
  let rec claim () =
    if Option.is_none (Atomic.get failed) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (match f arr.(i) with
        | r -> results.(i) <- Some r
        | exception e -> record i e (Printexc.get_raw_backtrace ()));
        claim ()
      end
    end
  in
  let run () =
    Domain.DLS.set in_task true;
    claim ();
    Domain.DLS.set in_task false
  in
  (* A failed spawn stops spawning: the caller claims tasks too, so
     fewer workers only means less overlap. *)
  let rec spawn k acc =
    if k = 0 then acc
    else begin
      (* counted before it starts, so its own tasks see it live *)
      Atomic.incr live;
      match Domain.spawn run with
      | d -> spawn (k - 1) (d :: acc)
      | exception _ ->
        Atomic.decr live;
        acc
    end
  in
  let workers = spawn (min (min jobs n - 1) max_workers) [] in
  run ();
  List.iter
    (fun d ->
      Domain.join d;
      Atomic.decr live)
    workers;
  match Atomic.get failed with
  | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> Array.map (function Some r -> r | None -> assert false) results

let map ?jobs f arr =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  if jobs = 1 || Array.length arr <= 1 || Domain.DLS.get in_task then
    Array.map f arr
  else parallel_map ~jobs f arr

let map_list ?jobs f l = Array.to_list (map ?jobs f (Array.of_list l))
