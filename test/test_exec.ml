(* Unit tests for the domain pool (lib/exec): ordering, the sequential
   jobs=1 path, nested maps (a lint run synthesizes each file, and
   each synthesis fans out its module pipeline inside it), and the
   exception contract — lowest-indexed failure
   surfaces, pending tasks are cancelled, and the pool stays usable. *)

exception Boom of int

let squares n = Array.init n (fun i -> i * i)

let test_map_order () =
  let out = Pool.map ~jobs:4 (fun i -> i * i) (Array.init 200 Fun.id) in
  Alcotest.(check (array int)) "ordered" (squares 200) out

let test_map_matches_sequential () =
  let arr = Array.init 64 (fun i -> 3 * i) in
  let f i = (i * 7919) mod 104729 in
  Alcotest.(check (array int))
    "jobs=4 = jobs=1"
    (Pool.map ~jobs:1 f arr)
    (Pool.map ~jobs:4 f arr)

let test_map_small () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 (fun i -> i) [||]);
  Alcotest.(check (array int))
    "singleton" [| 9 |]
    (Pool.map ~jobs:4 (fun i -> i * i) [| 3 |])

let test_map_list () =
  Alcotest.(check (list int))
    "ordered"
    (List.init 50 (fun i -> i + 1))
    (Pool.map_list ~jobs:3 succ (List.init 50 Fun.id))

let test_map_filter () =
  let l = List.init 30 Fun.id in
  Alcotest.(check (list int))
    "evens halved"
    (List.filter_map (fun i -> if i mod 2 = 0 then Some (i / 2) else None) l)
    (Pool.map_filter ~jobs:4
       (fun i -> if i mod 2 = 0 then Some (i / 2) else None)
       l)

(* A map whose tasks themselves map on the pool: caller helping means
   this terminates regardless of pool width. *)
let test_nested_maps () =
  let inner i =
    Pool.map ~jobs:4 (fun j -> i * j) (Array.init 20 Fun.id)
    |> Array.fold_left ( + ) 0
  in
  let out = Pool.map_list ~jobs:4 inner (List.init 8 Fun.id) in
  Alcotest.(check (list int))
    "nested sums"
    (List.init 8 (fun i -> i * 190))
    out

(* Every task raises a distinct exception; the surfaced one must belong
   to the lowest index, deterministically, at any width. *)
let test_exception_lowest_index () =
  List.iter
    (fun jobs ->
      match Pool.map ~jobs (fun i -> raise (Boom i)) (Array.init 16 Fun.id) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 0 -> ()
      | exception Boom i -> Alcotest.failf "jobs=%d surfaced Boom %d" jobs i)
    [ 1; 2; 4 ]

(* After a failing batch (pending tasks cancelled), the pool must keep
   serving ordinary batches. *)
let test_pool_survives_failure () =
  (try
     ignore
       (Pool.map ~jobs:4
          (fun i -> if i = 0 then raise (Boom 0) else i)
          (Array.init 64 Fun.id))
   with Boom 0 -> ());
  Alcotest.(check (array int))
    "pool still works" (squares 100)
    (Pool.map ~jobs:4 (fun i -> i * i) (Array.init 100 Fun.id))

(* The same contract under contention: every task raises at once, so a
   task above index 0 routinely records its failure before task 0 is
   taken off the queue.  Task 0 must still run and surface. *)
let test_exception_lowest_index_stress () =
  List.iter
    (fun jobs ->
      for round = 1 to 1000 do
        match
          Pool.map ~jobs (fun i -> raise (Boom i)) (Array.init 8 Fun.id)
        with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom 0 -> ()
        | exception Boom i ->
          Alcotest.failf "jobs=%d round %d surfaced Boom %d" jobs round i
      done)
    [ 2; 4 ]

let test_set_default_jobs_validation () =
  let msg = "Pool.set_default_jobs: jobs must be >= 1" in
  Alcotest.check_raises "zero" (Invalid_argument msg) (fun () ->
      Pool.set_default_jobs 0);
  Alcotest.check_raises "negative" (Invalid_argument msg) (fun () ->
      Pool.set_default_jobs (-3));
  Alcotest.(check bool) "default positive" true (Pool.default_jobs () >= 1)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_order;
          Alcotest.test_case "map = sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "empty/singleton" `Quick test_map_small;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "map_filter" `Quick test_map_filter;
          Alcotest.test_case "nested maps" `Quick test_nested_maps;
        ] );
      ( "failures",
        [
          Alcotest.test_case "lowest-index exception" `Quick
            test_exception_lowest_index;
          Alcotest.test_case "pool survives failure" `Quick
            test_pool_survives_failure;
          Alcotest.test_case "set_default_jobs validation" `Quick
            test_set_default_jobs_validation;
          Alcotest.test_case "lowest-index exception under stress" `Quick
            test_exception_lowest_index_stress;
        ] );
    ]
