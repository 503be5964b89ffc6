type hazard = { func_name : string; edge_src : int; edge_dst : int }

let edge_codes sg (f : Derive.func) e =
  let proj m = Support.project ~vars:f.Derive.support (Sg.code sg m) in
  (proj (Sg.edge_src sg e), proj (Sg.edge_dst sg e))

let static_one_hazards sg (f : Derive.func) =
  let hazards = ref [] in
  for e = 0 to Sg.n_edges sg - 1 do
      let c1, c2 = edge_codes sg f e in
      if c1 <> c2 && Cover.eval f.Derive.cover c1 && Cover.eval f.Derive.cover c2
      then begin
        let spanned =
          List.exists
            (fun c -> Cube.covers_minterm c c1 && Cube.covers_minterm c c2)
            f.Derive.cover.Cover.cubes
        in
        if not spanned then
          hazards :=
            {
              func_name = f.Derive.name;
              edge_src = Sg.edge_src sg e;
              edge_dst = Sg.edge_dst sg e;
            }
            :: !hazards
      end
  done;
  List.rev !hazards

let hazard_free_enlargement sg (f : Derive.func) =
  let width = List.length f.Derive.support in
  let cubes = ref f.Derive.cover.Cover.cubes in
  let covered_by_one c1 c2 =
    List.exists
      (fun c -> Cube.covers_minterm c c1 && Cube.covers_minterm c c2)
      !cubes
  in
  for e = 0 to Sg.n_edges sg - 1 do
      let c1, c2 = edge_codes sg f e in
      if
        c1 <> c2
        && Cover.covers_minterm { Cover.width; cubes = !cubes } c1
        && Cover.covers_minterm { Cover.width; cubes = !cubes } c2
        && not (covered_by_one c1 c2)
      then begin
        (* smallest cube spanning both codes: free the differing bits *)
        let all = (1 lsl width) - 1 in
        let pos = c1 land c2 land all in
        let neg = lnot (c1 lor c2) land all in
        let span = Cube.make ~pos ~neg in
        (* expand to a prime so we do not degrade primality *)
        let span =
          List.fold_left
            (fun c v ->
              if Cube.fixes c v then begin
                let c' = Cube.drop_var c v in
                if not (List.exists (Cube.covers_minterm c') f.Derive.offset)
                then c'
                else c
              end
              else c)
            span
            (List.init width Fun.id)
        in
        if not (List.exists (Cube.covers_minterm span) f.Derive.offset) then
          cubes := span :: !cubes
      end
  done;
  { f with Derive.cover = Cover.make ~width (List.rev !cubes) }

let pp_hazard ppf h =
  Format.fprintf ppf "static-1 hazard on %s across edge %d->%d" h.func_name
    h.edge_src h.edge_dst
