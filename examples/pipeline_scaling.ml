(* The paper's headline claim, on a scalable family: as state graphs grow,
   the modular method's cost stays near-linear while the direct SAT
   formulation falls off a cliff.

   Run with:  dune exec examples/pipeline_scaling.exe

   Uses the mixed pipeline family from Bench_gen: `stages` sequential
   sections, each forking into concurrent conflict-producing pulses. *)

let direct_budget = 10.0 (* seconds per instance before "abort" *)

let () =
  Printf.printf "%8s %8s %10s %12s %12s\n" "stages" "states" "conflicts"
    "modular(s)" "direct(s)";
  List.iter
    (fun (stages, branches) ->
      let stg = Bench_gen.mixed ~stages ~branches in
      let sg = Sg.of_stg stg in
      let t0 = Unix.gettimeofday () in
      let r = Mpart.synthesize stg in
      let modular_t = Unix.gettimeofday () -. t0 in
      assert (Mpart.verify r = None);
      let t0 = Unix.gettimeofday () in
      let direct =
        match
          (Csc_direct.solve ~time_limit:direct_budget sg).Csc_direct.outcome
        with
        | Csc_direct.Solved _ -> Printf.sprintf "%12.3f" (Unix.gettimeofday () -. t0)
        | Csc_direct.Gave_up _ -> Printf.sprintf "%12s" "> budget"
      in
      Printf.printf "%5dx%d %8d %10d %12.3f %s\n%!" stages branches
        (Sg.n_states sg) (Csc.n_conflicts sg) modular_t direct)
    [ (1, 1); (2, 1); (2, 2); (3, 2); (2, 3); (4, 2); (3, 3) ]
