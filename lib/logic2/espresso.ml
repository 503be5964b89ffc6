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
  Option.iter
    (fun m ->
      invalid_arg
        (Printf.sprintf "Espresso.minimize: minterm %d in both sets" m))
    (Support.first_overlap ~onset ~offset);
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
    let on = Array.of_list onset in
    let n_on = Array.length on in
    (* covers.(ci).(j): prime [ci] covers the [j]-th on-set minterm *)
    let covers =
      Array.map (fun c -> Array.map (Cube.covers_minterm c) on) primes
    in
    let chosen = Array.make np false in
    let covered = Array.make n_on false in
    let n_uncovered = ref n_on in
    let mark_covered ci =
      chosen.(ci) <- true;
      Array.iteri
        (fun j hit ->
          if hit && not covered.(j) then begin
            covered.(j) <- true;
            decr n_uncovered
          end)
        covers.(ci)
    in
    (* Essential primes: sole cover of some minterm. *)
    for j = 0 to n_on - 1 do
      let n_covering = ref 0 and last = ref (-1) in
      for ci = 0 to np - 1 do
        if covers.(ci).(j) then begin
          incr n_covering;
          last := ci
        end
      done;
      if !n_covering = 1 && not chosen.(!last) then mark_covered !last
    done;
    (* Greedy cover of what is left: the first prime of largest gain. *)
    while !n_uncovered > 0 do
      let best = ref (-1) and best_gain = ref (-1) in
      for ci = 0 to np - 1 do
        if not chosen.(ci) then begin
          let gain = ref 0 in
          Array.iteri
            (fun j hit -> if hit && not covered.(j) then incr gain)
            covers.(ci);
          if !gain > !best_gain then begin
            best_gain := !gain;
            best := ci
          end
        end
      done;
      assert (!best >= 0 && !best_gain > 0);
      mark_covered !best
    done;
    (* Backward sweep: drop anything still redundant, last chosen first.
       A kept prime is redundant when every minterm it covers is covered
       by another kept prime. *)
    let n_kept = Array.make n_on 0 in
    Array.iteri
      (fun ci c ->
        if chosen.(ci) then
          Array.iteri (fun j hit -> if hit then n_kept.(j) <- n_kept.(j) + 1) c)
      covers;
    for ci = np - 1 downto 0 do
      if
        chosen.(ci)
        && Array.for_all2 (fun hit k -> (not hit) || k >= 2) covers.(ci) n_kept
      then begin
        chosen.(ci) <- false;
        Array.iteri
          (fun j hit -> if hit then n_kept.(j) <- n_kept.(j) - 1)
          covers.(ci)
      end
    done;
    Cover.make ~width
      (List.filter_map
         (fun ci -> if chosen.(ci) then Some primes.(ci) else None)
         (List.init np Fun.id))
  end

let verify ~onset ~offset cover =
  Cover.covers_all cover onset && Cover.disjoint_from cover offset

let is_prime ~width ~offset cube =
  List.for_all
    (fun v ->
      (not (Cube.fixes cube v))
      || List.exists (Cube.covers_minterm (Cube.drop_var cube v)) offset)
    (List.init width Fun.id)

let is_irredundant ~onset (cover : Cover.t) =
  let cubes = Array.of_list cover.Cover.cubes in
  let n = Array.length cubes in
  List.for_all
    (fun ci ->
      List.exists
        (fun m ->
          Cube.covers_minterm cubes.(ci) m
          && not
               (List.exists
                  (fun cj -> cj <> ci && Cube.covers_minterm cubes.(cj) m)
                  (List.init n Fun.id)))
        onset)
    (List.init n Fun.id)
