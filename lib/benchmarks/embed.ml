(* Build-time generator: prints [let files = [ (basename, text); ... ]]
   for the .g files named on the command line, so the Table-1 nets are
   compiled in from data/*.g, their one source. *)
let () =
  print_string "let files = [\n";
  Array.iteri
    (fun i path ->
      if i > 0 then
        Printf.printf "  (%S, %S);\n"
          Filename.(remove_extension (basename path))
          (In_channel.with_open_bin path In_channel.input_all))
    Sys.argv;
  print_string "]\n"
