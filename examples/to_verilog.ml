(* From specification to gate-level netlist.

   Run with:  dune exec examples/to_verilog.exe -- [benchmark]

   Synthesizes a benchmark, checks speed independence of the expanded
   state graph, maps the minimized covers onto an AND/OR/NOT network
   with feedback, cross-simulates the netlist against every reachable
   state, and prints the structural Verilog. *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "fifo" in
  let entry = Bench_suite.find name in
  let stg = entry.Bench_suite.build () in
  let r = Mpart.synthesize stg in
  (match Mpart.verify r with
  | None -> ()
  | Some e -> failwith e);

  let expanded = r.Mpart.expanded in
  Printf.printf "// %s: %d states, %d signals, %d literals\n" name
    (Sg.n_states expanded) (Sg.n_signals expanded)
    (Mpart.area_literals r);
  Printf.printf "// speed independence: %s\n"
    (if Persistency.is_semi_modular expanded then "semi-modular"
     else "violated");

  let inputs = List.map (Stg.signal_name stg) (Stg.inputs stg) in
  let nl = Netlist.of_functions ~name ~inputs r.Mpart.functions in

  (* cross-simulate: the network must compute the implied next value of
     every non-input signal in every reachable state *)
  let mismatches = ref 0 in
  for m = 0 to Sg.n_states expanded - 1 do
    let env =
      List.init (Sg.n_signals expanded) (fun s ->
          (Sg.signal_name expanded s, Sg.bit expanded m s))
    in
    List.iter
      (fun (o, v) ->
        let s = Sg.find_signal expanded o in
        if v <> Sg.implied_value expanded m s then incr mismatches)
      (Netlist.eval nl env)
  done;
  Printf.printf "// cross-simulation: %d mismatches over %d states\n"
    !mismatches (Sg.n_states expanded);
  Printf.printf "// %d gates, ~%d transistors, max fanin %d\n\n"
    (Netlist.n_gates nl) (Netlist.n_transistors nl) (Netlist.max_fanin nl);
  print_string (Netlist.to_verilog nl);
  if !mismatches > 0 then exit 1
