type outcome = Solved of Sg.t | Gave_up of Dpll.abort_reason

type report = {
  outcome : outcome;
  n_new : int;
  rounds : int;
  formulas : Csc_direct.formula_size list;
}

(* Pick the conflict pair to force this round: one from the largest
   conflicting code class, so the densest ambiguity is attacked first. *)
let pick_target sg =
  let pairs = Csc.conflict_pairs sg in
  match pairs with
  | [] -> None
  | _ ->
    let class_of = Hashtbl.create 16 in
    List.iter
      (fun members ->
        List.iter
          (fun m -> Hashtbl.replace class_of m (List.length members))
          members)
      (Csc.code_classes sg);
    let weight (m, _) =
      Option.value (Hashtbl.find_opt class_of m) ~default:0
    in
    let best =
      List.fold_left
        (fun acc p -> match acc with
          | None -> Some p
          | Some q -> if weight p > weight q then Some p else Some q)
        None pairs
    in
    best

let solve ?backtrack_limit ?time_limit ?max_rounds sg =
  let deadline = Deadline.of_limit time_limit in
  let max_rounds =
    match max_rounds with
    | Some m -> m
    | None -> 4 + (4 * max 1 (Csc.lower_bound sg))
  in
  let formulas = ref [] in
  let finish outcome n_new rounds =
    { outcome; n_new; rounds; formulas = List.rev !formulas }
  in
  let rec round sg rounds =
    match pick_target sg with
    | None -> finish (Solved sg) rounds rounds
    | Some _ when rounds >= max_rounds ->
      finish (Gave_up Dpll.Signal_limit) 0 rounds
    | Some pair -> (
      (* one new signal per round; forcing just this pair keeps the
         instance satisfiable with a single signal in practice, but fall
         back to more signals when the structure demands it *)
      let realize enc model =
        let names =
          Array.init enc.Csc_encode.n_new (fun k ->
              Printf.sprintf "seq%d" (rounds + k))
        in
        Csc_encode.apply sg enc model ~names
      in
      let r =
        Csc_search.search ~resolve:[ pair ]
          ~ladder:[ (1, `Strict); (2, `Strict); (3, `Strict) ]
          ~propose:(Csc_search.dpll ?backtrack_limit ~deadline)
          ~realize sg
      in
      formulas := List.rev_append r.Csc_search.formulas !formulas;
      match r.Csc_search.outcome with
      | Csc_search.Gave_up reason -> finish (Gave_up reason) 0 rounds
      | Csc_search.Found (sg', added) -> round sg' (rounds + added))
  in
  round sg 0

let synthesize ?backtrack_limit ?time_limit sg =
  let r = solve ?backtrack_limit ?time_limit sg in
  match r.outcome with
  | Gave_up reason -> Either.Right reason
  | Solved solved ->
    let expanded = Sg_expand.expand solved in
    let functions = Derive.synthesize expanded in
    Either.Left (expanded, functions, r)
