(* [Input_derivation.determine] as it decided candidates before the
   shrinking quotient: every hide is tested on a union-find over all of
   the complete graph's states, and the module is one [Sg_ref.quotient]
   of the complete graph at the end.  The reference the test-suite
   compares the input set, immediate set, kept extras, module digest
   and cover against. *)

(* Union-find over the complete graph's states: a class of the partition
   is a state of the quotient the current hidden set would build. *)
let rec find parent i =
  let p = parent.(i) in
  if p = i then i
  else begin
    let r = find parent p in
    parent.(i) <- r;
    r
  end

let union parent i j =
  let ri = find parent i and rj = find parent j in
  if ri <> rj then parent.(max ri rj) <- min ri rj

exception Reject

let determine sg ~output =
  let n = Sg.n_states sg and ns = Sg.n_signals sg in
  let edges = Sg_records.edges sg and extras = Sg.extras sg in
  let immediate = Input_derivation.triggers sg ~output in
  (* Edge indices of each signal. *)
  let by_signal = Array.make ns [] in
  (* [excitation.(m)]: bit 0 when m has an [output]+ edge, bit 1 for -. *)
  let excitation = Array.make n 0 in
  Array.iteri
    (fun i e ->
      match e.Sg_records.label with
      | Sg_records.Ev (s, d) ->
        by_signal.(s) <- i :: by_signal.(s);
        if s = output then
          excitation.(e.Sg_records.src) <-
            excitation.(e.Sg_records.src) lor (match d with Sg.R -> 1 | Sg.F -> 2))
    edges;
  let implied m x = if Sg.bit sg m output then x land 2 = 0 else x land 1 <> 0 in
  let state_implied = Array.init n (fun m -> implied m excitation.(m)) in
  (* [unmergeable.(x).(s)]: some edge of signal s carries a pair of
     extra x's values that fails [Fourval.edge_ok], so no view hiding s
     can keep x. *)
  let unmergeable =
    Array.map
      (fun (x : Sg.extra) ->
        Array.map
          (List.exists (fun i ->
               let e = edges.(i) in
               not (Fourval.edge_ok x.Sg.values.(e.Sg_records.src) x.Sg.values.(e.Sg_records.dst))))
          by_signal)
      extras
  in
  let hidden = Array.make ns false and dropped = Array.make (Array.length extras) false in
  (* Per-class scratch, indexed by class root. *)
  let root = Array.make n 0 and class_implied = Array.make n 0 in
  let class_excitation = Array.make n 0 in
  let code = Array.make n 0 in
  let presence = Array.make n Fourval.absent and merged = Array.make n Fourval.V0 in
  let codes_seen : (int, int) Hashtbl.t = Hashtbl.create 64 in
  (* The decision [Sg_ref.quotient] + homogeneity + conflict count of the
     view would make, read off the partition without building it:
     [None] when the view does not exist or (with [~homogeneity]) a class
     mixes both implied values of [output], else the number of full codes
     of the view whose classes imply both values of [output]. *)
  let evaluate ~homogeneity parent =
    Array.fill class_implied 0 n 0;
    Array.fill class_excitation 0 n 0;
    for m = 0 to n - 1 do
      let r = find parent m in
      root.(m) <- r;
      let v = if state_implied.(m) then 2 else 1 in
      (* A merge class mixing both implied values of [output] would make
         the output's logic ill-defined over the module, and would hide a
         conflict this module is responsible for. *)
      if class_implied.(r) = 0 then class_implied.(r) <- v
      else if homogeneity && class_implied.(r) <> v then raise Reject;
      class_excitation.(r) <- class_excitation.(r) lor excitation.(m)
    done;
    (* visible code of each class: kept signals renumbered ascending *)
    let n_kept = ref 0 in
    for s = 0 to ns - 1 do
      if not hidden.(s) then incr n_kept
    done;
    for r = 0 to n - 1 do
      if root.(r) = r then begin
        let c = Sg.code sg r and out = ref 0 and nw = ref 0 in
        for s = 0 to ns - 1 do
          if not hidden.(s) then begin
            if c land (1 lsl s) <> 0 then out := !out lor (1 lsl !nw);
            incr nw
          end
        done;
        code.(r) <- !out
      end
    done;
    (* kept extras merged with the Figure-3 rules, as [Sg_ref.quotient]
       does *)
    let kept = ref 0 in
    Array.iteri
      (fun xi (x : Sg.extra) ->
        if not dropped.(xi) then begin
          let bad = unmergeable.(xi) in
          for s = 0 to ns - 1 do
            if hidden.(s) && bad.(s) then raise Reject
          done;
          Array.fill presence 0 n Fourval.absent;
          for m = 0 to n - 1 do
            let r = root.(m) in
            presence.(r) <- Fourval.present presence.(r) x.Sg.values.(m)
          done;
          for r = 0 to n - 1 do
            if root.(r) = r then
              match Fourval.merge_presence presence.(r) with
              | Some v -> merged.(r) <- v
              | None -> raise Reject
          done;
          Array.iter
            (fun e ->
              match e.Sg_records.label with
              | Sg_records.Ev (s, _) when not hidden.(s) ->
                if
                  not
                    (Fourval.edge_ok merged.(root.(e.Sg_records.src)) merged.(root.(e.Sg_records.dst)))
                then raise Reject
              | Sg_records.Ev _ -> ())
            edges;
          let b = 1 lsl (!n_kept + !kept) in
          for r = 0 to n - 1 do
            if root.(r) = r && Fourval.binary merged.(r) then code.(r) <- code.(r) lor b
          done;
          incr kept
        end)
      extras;
    (* Conflict classes of the view: full codes carried by classes of both
       implied values of [output].  [output] is never hidden, so each of
       its edges leaves its class, and a class is excited on [output]
       exactly when one of its members is. *)
    Hashtbl.clear codes_seen;
    let conflicts = ref 0 in
    for r = 0 to n - 1 do
      if root.(r) = r then begin
        let v = if implied r class_excitation.(r) then 2 else 1 in
        let seen =
          match Hashtbl.find codes_seen code.(r) with
          | seen -> seen
          | exception Not_found -> 0
        in
        if seen lor v = 3 && seen <> 3 then incr conflicts;
        Hashtbl.replace codes_seen code.(r) (seen lor v)
      end
    done;
    !conflicts
  in
  let evaluate ~homogeneity parent =
    try Some (evaluate ~homogeneity parent) with Reject -> None
  in
  let parent = ref (Array.init n Fun.id) in
  let n_csc = ref (Option.get (evaluate ~homogeneity:false !parent)) in
  (* State signals first: an inserted signal that is irrelevant to this
     output would otherwise block the ε-merging of the region it toggles
     in (its rise and fall would land in one class), inflating the
     module.  Dropping is safe whenever this output's conflicts do not
     increase. *)
  let kept_extras = ref [] in
  Array.iteri
    (fun xi (x : Sg.extra) ->
      dropped.(xi) <- true;
      match evaluate ~homogeneity:false !parent with
      | Some n' when n' <= !n_csc -> n_csc := n'
      | Some _ | None ->
        dropped.(xi) <- false;
        kept_extras := x.Sg.xname :: !kept_extras)
    extras;
  let input_set = ref [] in
  for s = 0 to ns - 1 do
    if s <> output then
      if List.mem s immediate then input_set := s :: !input_set
      else begin
        hidden.(s) <- true;
        let candidate = Array.copy !parent in
        List.iter (fun i -> union candidate edges.(i).Sg_records.src edges.(i).Sg_records.dst) by_signal.(s);
        (* [None]: a state signal would lose its representation, or a
           class would mix both implied values of [output] *)
        match evaluate ~homogeneity:true candidate with
        | Some n' when n' <= !n_csc ->
          n_csc := n';
          parent := candidate
        | Some _ | None ->
          hidden.(s) <- false;
          input_set := s :: !input_set
      end
  done;
  (* One materialization: the view the last accepted candidate decided. *)
  let module_sg, cover =
    Option.get
      (Sg_ref.quotient sg
         ~keep_signal:(fun s -> not hidden.(s))
         ~keep_extra:(fun name -> List.mem name !kept_extras))
  in
  {
    Input_derivation.output;
    input_set = List.sort Int.compare !input_set;
    immediate;
    kept_extras = List.rev !kept_extras;
    module_sg;
    cover;
  }
