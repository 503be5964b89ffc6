let time_budget = 20.0
let backtrack_budget = 2_000_000
let resolve_time_limit = Option.value ~default:time_budget

let synthesize ?backtrack_limit ?time_limit sg =
  let r = Csc_direct.solve ?backtrack_limit ?time_limit sg in
  match r.Csc_direct.outcome with
  | Csc_direct.Gave_up reason -> Either.Right (reason, r)
  | Csc_direct.Solved solved ->
    let expanded =
      let minimized = Region_minimize.minimize solved in
      if Sg_expand.csc_satisfied minimized then Sg_expand.expand minimized
      else if Sg_expand.csc_satisfied solved then Sg_expand.expand solved
      else raise (Derive.Not_csc "direct method: the expansion lacks CSC")
    in
    Either.Left (expanded, Derive.synthesize expanded, r)
