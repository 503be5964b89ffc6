(* Logic derivation as it stood before it was decided on excitation
   masks: per-state [Sg.implied_value] scans, per-signal sorts, and
   supports tested by re-projecting every code onto every candidate
   variable set.  The reference the test-suite compares [Derive] and
   [Support] against, set for set and cover for cover. *)

let on_off_sets sg ~signal =
  let on = ref [] and off = ref [] in
  for m = 0 to Sg.n_states sg - 1 do
    let c = Sg.code sg m in
    if Sg.implied_value sg m signal then on := c :: !on else off := c :: !off
  done;
  (List.sort_uniq Int.compare !on, List.sort_uniq Int.compare !off)

let sufficient ~vars ~onset ~offset =
  let tbl = Hashtbl.create (List.length onset) in
  List.iter (fun m -> Hashtbl.replace tbl (Support.project ~vars m) ()) onset;
  not (List.exists (fun m -> Hashtbl.mem tbl (Support.project ~vars m)) offset)

let reduce ~width ~onset ~offset =
  let vars = ref (List.init width Fun.id) in
  for v = width - 1 downto 0 do
    let without = List.filter (( <> ) v) !vars in
    if sufficient ~vars:without ~onset ~offset then vars := without
  done;
  !vars

let collisions ~vars ~onset ~offset =
  let tbl = Hashtbl.create (List.length onset) in
  List.iter
    (fun m ->
      let k = Support.project ~vars m in
      Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0))
    onset;
  List.fold_left
    (fun acc m ->
      acc
      + Option.value (Hashtbl.find_opt tbl (Support.project ~vars m)) ~default:0)
    0 offset

let grow ~width ~vars ~onset ~offset =
  let full = List.init width Fun.id in
  if not (sufficient ~vars:full ~onset ~offset) then
    invalid_arg "Support.grow: on-set and off-set intersect";
  let rec go vars =
    if sufficient ~vars ~onset ~offset then List.sort_uniq Int.compare vars
    else begin
      let candidates = List.filter (fun v -> not (List.mem v vars)) full in
      let best =
        List.fold_left
          (fun (bv, bc) v ->
            let c =
              collisions ~vars:(List.sort Int.compare (v :: vars)) ~onset ~offset
            in
            if c < bc then (v, c) else (bv, bc))
          (-1, max_int) candidates
      in
      match best with
      | -1, _ -> assert false
      | v, _ -> go (List.sort Int.compare (v :: vars))
    end
  in
  go (List.sort_uniq Int.compare vars)

(* [synthesize ?support_of sg] is [Derive.synthesize ?support_of sg]
   built on the functions above: (signal, support, onset, offset, cover)
   per non-input signal, the sets projected onto the support, which is
   the proposed one grown, or the reduced one. *)
let synthesize ?(support_of = fun _ -> None) sg =
  let width = Sg.n_signals sg in
  List.filter_map
    (fun s ->
      if not (Sg.non_input sg s) then None
      else
        let onset, offset = on_off_sets sg ~signal:s in
        let support =
          match support_of s with
          | Some vars -> vars
          | None -> reduce ~width ~onset ~offset
        in
        let support = grow ~width ~vars:support ~onset ~offset in
        let proj = Support.project ~vars:support in
        let onset = List.sort_uniq Int.compare (List.map proj onset) in
        let offset = List.sort_uniq Int.compare (List.map proj offset) in
        let cover =
          Espresso.minimize ~width:(List.length support) ~onset ~offset
        in
        Some (s, support, onset, offset, cover))
    (List.init width Fun.id)

let check (fs : Derive.func list) sg =
  let bad = ref [] in
  List.iter
    (fun (f : Derive.func) ->
      for m = 0 to Sg.n_states sg - 1 do
        let expected = Sg.implied_value sg m f.signal in
        let projected = Support.project ~vars:f.support (Sg.code sg m) in
        if Cover.eval f.cover projected <> expected then
          bad := (f.name, m) :: !bad
      done)
    fs;
  List.rev !bad

(* The supports [Mpart.implement] proposes to [Derive.synthesize] for
   [r.expanded]: each module's input set, kept extras and new signals,
   as signal ids of the expanded graph, for the module's output. *)
let module_supports (r : Mpart.result) s =
  let ex = r.Mpart.expanded in
  List.find_map
    (fun (m : Mpart.module_report) ->
      if m.Mpart.output_name <> Sg.signal_name ex s then None
      else
        Some
          (List.sort_uniq Int.compare
             (List.filter_map
                (fun n ->
                  match Sg.find_signal ex n with
                  | id -> Some id
                  | exception Not_found -> None)
                (m.Mpart.input_set @ m.Mpart.kept_extras @ m.Mpart.new_signals))))
    r.Mpart.modules
