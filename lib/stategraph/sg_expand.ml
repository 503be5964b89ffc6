(* One pass over all extras.  Expanding one extra at a time splits
   every state once per extra excited there, A half before B half, and
   later levels copy values to both halves; so the final copies of [m]
   are indexed by a j-bit number over its j excited extras, extra 0 the
   most significant bit and 0 the A half.  Each level's edges are its
   own inserted transitions followed by the previous level's edges, each
   re-routed into one edge, or an A then a B edge for a concurrent
   extra; that order is rebuilt below, last extra's transitions first.
   Every copy of a state carries the same extra values, so the value
   pairs of the original edges are all the re-routing needs. *)
let expand sg =
  let extras = Sg.extras sg in
  let k = Array.length extras in
  if k = 0 then sg
  else begin
    let n = Sg.n_states sg and ns = Sg.n_signals sg in
    (* pos.(i).(m): copy-index bit of extra [i] at [m], -1 when stable *)
    let pos = Array.make_matrix k n (-1) in
    let width = Array.make n 0 in
    for m = 0 to n - 1 do
      for i = k - 1 downto 0 do
        if Fourval.excited extras.(i).Sg.values.(m) then begin
          pos.(i).(m) <- width.(m);
          width.(m) <- width.(m) + 1
        end
      done
    done;
    let first = Array.make (n + 1) 0 in
    for m = 0 to n - 1 do
      first.(m + 1) <- first.(m) + (1 lsl width.(m))
    done;
    let codes = Array.make first.(n) 0 in
    for m = 0 to n - 1 do
      for c = 0 to (1 lsl width.(m)) - 1 do
        let code = ref (Sg.code sg m) in
        for i = 0 to k - 1 do
          let b_half = pos.(i).(m) >= 0 && c land (1 lsl pos.(i).(m)) <> 0 in
          let bit =
            match extras.(i).Sg.values.(m) with
            | Fourval.V0 -> false
            | Fourval.V1 -> true
            | Fourval.Up -> b_half
            | Fourval.Dn -> not b_half
          in
          if bit then code := !code lor (1 lsl (ns + i))
        done;
        codes.(first.(m) + c) <- !code
      done
    done;
    let edges = ref [] in
    let add src label dst = edges := { Sg.src; label; dst } :: !edges in
    (* The inserted transitions, from every A copy to its B copy. *)
    for i = k - 1 downto 0 do
      for m = 0 to n - 1 do
        let dir =
          match extras.(i).Sg.values.(m) with
          | Fourval.Up -> Some Sg.R
          | Fourval.Dn -> Some Sg.F
          | Fourval.V0 | Fourval.V1 -> None
        in
        Option.iter
          (fun d ->
            let b = 1 lsl pos.(i).(m) in
            for c = 0 to (1 lsl width.(m)) - 1 do
              if c land b = 0 then
                add (first.(m) + c) (Sg.Ev (ns + i, d)) (first.(m) + c + b)
            done)
          dir
      done
    done;
    (* Re-routed original edges: a source leaving an excited extra's
       region is its B copy, a destination entering one its A copy, and
       each extra concurrent along the edge adds one free bit shared by
       both ends. *)
    let free = Array.make k (0, 0) in
    Array.iter
      (fun e ->
        let s = e.Sg.src and d = e.Sg.dst in
        let src_c = ref 0 and n_free = ref 0 in
        for i = 0 to k - 1 do
          let values = extras.(i).Sg.values in
          match (values.(s), values.(d)) with
          | Fourval.V0, Fourval.V0 | Fourval.V1, Fourval.V1 -> ()
          | Fourval.V0, Fourval.Up | Fourval.V1, Fourval.Dn -> ()
          | Fourval.Up, Fourval.V1 | Fourval.Dn, Fourval.V0 ->
            src_c := !src_c lor (1 lsl pos.(i).(s))
          | Fourval.Up, Fourval.Up | Fourval.Dn, Fourval.Dn ->
            free.(!n_free) <- (1 lsl pos.(i).(s), 1 lsl pos.(i).(d));
            incr n_free
          | _ ->
            (* add_extra validated the assignment, so this cannot happen *)
            assert false
        done;
        let nf = !n_free in
        for t = 0 to (1 lsl nf) - 1 do
          let sc = ref !src_c and dc = ref 0 in
          for r = 0 to nf - 1 do
            if t land (1 lsl (nf - 1 - r)) <> 0 then begin
              let sb, db = free.(r) in
              sc := !sc lor sb;
              dc := !dc lor db
            end
          done;
          add (first.(s) + !sc) e.Sg.label (first.(d) + !dc)
        done)
      (Sg.edges sg);
    let signals =
      Array.init (ns + k) (fun s ->
          if s < ns then
            { Sg.sname = Sg.signal_name sg s; non_input = Sg.non_input sg s }
          else { Sg.sname = extras.(s - ns).Sg.xname; non_input = true })
    in
    Sg.make ~name:(Sg.name sg) ~signals ~codes ~edges:(List.rev !edges)
      ~initial:first.(Sg.initial sg)
  end
