(* The cover minimizer as it stood before its membership scans were
   replaced by a merge walk and per-prime bool arrays: the reference the
   test-suite compares [Espresso.minimize] against, cube for cube. *)

let expand_cube ~width ~offset cube =
  let c = ref cube in
  for v = 0 to width - 1 do
    if Cube.fixes !c v then begin
      let c' = Cube.drop_var !c v in
      if not (List.exists (Cube.covers_minterm c') offset) then c := c'
    end
  done;
  !c

let minimize ~width ~onset ~offset =
  let onset = List.sort_uniq Int.compare onset in
  let offset = List.sort_uniq Int.compare offset in
  List.iter
    (fun m ->
      if List.mem m offset then
        invalid_arg
          (Printf.sprintf "Espresso.minimize: minterm %d in both sets" m))
    onset;
  if onset = [] then Cover.empty ~width
  else begin
    (* EXPAND every on-set minterm to a prime. *)
    let primes =
      List.sort_uniq Cube.compare
        (List.map
           (fun m -> expand_cube ~width ~offset (Cube.of_minterm ~width m))
           onset)
    in
    (* Drop primes strictly contained in another. *)
    let primes =
      List.filter
        (fun c ->
          not
            (List.exists
               (fun c' -> (not (Cube.equal c c')) && Cube.contains c' c)
               primes))
        primes
    in
    let primes = Array.of_list primes in
    let np = Array.length primes in
    let cover_sets =
      Array.map
        (fun c -> List.filter (Cube.covers_minterm c) onset)
        primes
    in
    let chosen = Array.make np false in
    let covered = Hashtbl.create (List.length onset) in
    let mark_covered ci =
      chosen.(ci) <- true;
      List.iter (fun m -> Hashtbl.replace covered m ()) cover_sets.(ci)
    in
    (* Essential primes: sole cover of some minterm. *)
    List.iter
      (fun m ->
        let covering = ref [] in
        Array.iteri
          (fun ci c -> if Cube.covers_minterm c m then covering := ci :: !covering)
          primes;
        match !covering with [ ci ] -> if not chosen.(ci) then mark_covered ci | _ -> ())
      onset;
    (* Greedy cover of what is left. *)
    let uncovered () = List.filter (fun m -> not (Hashtbl.mem covered m)) onset in
    let rec greedy () =
      match uncovered () with
      | [] -> ()
      | remaining ->
        let best = ref (-1) and best_gain = ref (-1) in
        Array.iteri
          (fun ci _ ->
            if not chosen.(ci) then begin
              let gain =
                List.length (List.filter (fun m -> List.mem m cover_sets.(ci)) remaining)
              in
              if gain > !best_gain then begin
                best_gain := gain;
                best := ci
              end
            end)
          primes;
        assert (!best >= 0 && !best_gain > 0);
        mark_covered !best;
        greedy ()
    in
    greedy ();
    (* Backward sweep: drop anything still redundant. *)
    let kept = ref (List.filter (fun ci -> chosen.(ci)) (List.init np Fun.id)) in
    List.iter
      (fun ci ->
        let without = List.filter (( <> ) ci) !kept in
        let still_covered m =
          List.exists (fun cj -> Cube.covers_minterm primes.(cj) m) without
        in
        if List.for_all still_covered onset then kept := without)
      (List.rev !kept);
    Cover.make ~width (List.map (fun ci -> primes.(ci)) !kept)
  end
