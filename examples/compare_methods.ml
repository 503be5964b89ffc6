(* Reproduce one row of the paper's Table 1: run the same benchmark
   through the three synthesis methods and compare state-signal counts,
   final state counts, two-level area and wall time.

   Run with:  dune exec examples/compare_methods.exe -- [benchmark]
   (default benchmark: mmu1; `dune exec bin/mpsyn.exe -- list` names) *)

let row name signals states area time =
  Printf.printf "  %-11s %8s %8s %8s %9s\n" name signals states area time

let itoa = string_of_int
let ftoa t = Printf.sprintf "%.3fs" t

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "mmu1" in
  let entry = Bench_suite.find name in
  let stg = entry.Bench_suite.build () in
  let sg = Sg.of_stg stg in
  Printf.printf "benchmark %s: %d states, %d signals, %d CSC conflict pairs\n\n"
    name (Sg.n_states sg) (Sg.n_signals sg) (Csc.n_conflicts sg);
  row "method" "signals" "states" "area" "time";

  (* the paper's modular partitioning approach *)
  let t0 = Unix.gettimeofday () in
  let r = Mpart.synthesize stg in
  assert (Mpart.verify r = None);
  row "modular"
    (itoa (Mpart.final_signals r))
    (itoa (Mpart.final_states r))
    (itoa (Mpart.area_literals r))
    (ftoa (Unix.gettimeofday () -. t0));

  (* the two baselines, Vanbekbergen-style direct SAT and Lavagno-style
     sequential insertion, with the paper's abort behaviour *)
  let baseline name synth =
    let t0 = Unix.gettimeofday () in
    match synth () with
    | Either.Left (ex, fs) ->
      row name
        (itoa (Sg.n_signals ex))
        (itoa (Sg.n_states ex))
        (itoa (Derive.total_literals fs))
        (ftoa (Unix.gettimeofday () -. t0))
    | Either.Right reason ->
      row name "-" "-" "-"
        (match reason with
        | Dpll.Backtrack_limit -> "abort(bt)"
        | Dpll.Time_limit -> "abort(t)"
        | Dpll.Signal_limit -> "abort(sig)")
  in
  let implementation (ex, fs, _) = (ex, fs) in
  baseline "direct" (fun () ->
      Direct_method.synthesize ~backtrack_limit:2_000_000 ~time_limit:60.0 sg
      |> Either.map ~left:implementation ~right:fst);
  baseline "sequential" (fun () ->
      Sequential_insertion.synthesize ~backtrack_limit:2_000_000
        ~time_limit:60.0 sg
      |> Either.map_left implementation)
