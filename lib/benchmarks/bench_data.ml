(* The 23 Table-1 nets, parsed from the data/*.g text compiled in by
   [Bench_files] (see [Bench_suite] for their provenance). *)

let all : (string * (unit -> Stg.t)) list =
  List.map
    (fun (name, text) -> (name, fun () -> Gformat.parse_string ~name text))
    Bench_files.files
  @ [
      (* Beyond Table 1: lock-clean rings (every signal pair strictly
         alternates), the family the A6 lock-relation prescreen certifies
         statically — synthesis on these skips SAT entirely. *)
      ("lock-ring2", fun () -> Bench_gen.lock_ring ~signals:2);
      ("lock-ring3", fun () -> Bench_gen.lock_ring ~signals:3);
      ("lock-ring5", fun () -> Bench_gen.lock_ring ~signals:5);
    ]
