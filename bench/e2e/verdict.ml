(* Judging two sets of results documents against the bounds
   BENCHMARK.json fixes for each end-to-end metric. *)

type t = Better | Same | Worse | Unresolved

let to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* The q1-q3 distance as a share of the median. *)
let spread (s : Stats.summary) =
  if s.value <> 0. then (s.q3 -. s.q1) /. Float.abs s.value
  else if s.q3 > s.q1 then infinity
  else 0.

(* [judge ~better ~bound a b] compares [b] (the change) with [a] (the
   base).  A change larger than [bound], as a share of [a]'s median,
   is better or worse; a spread wider than [bound] on either side
   leaves the comparison unresolved.  A base of exactly 0 is compared
   in absolute terms. *)
let judge ~better ~bound (a : Stats.summary) (b : Stats.summary) =
  if Float.max (spread a) (spread b) > bound then Unresolved
  else
    let d = match better with `Lower -> b.value -. a.value | `Higher -> a.value -. b.value in
    let worse_by = if a.value = 0. then d else d /. Float.abs a.value in
    if worse_by > bound then Worse else if worse_by < -.bound then Better else Same

let summary_of_json j =
  let num k = Option.bind (Json.member k j) Json.to_num in
  match (num "value", num "q1", num "q3", num "n") with
  | Some value, Some q1, Some q3, Some n -> Some { Stats.value; q1; q3; n = int_of_float n }
  | _ -> None

type bound = { metric : string; better : [ `Lower | `Higher ]; bound : float }

(* The end-to-end metrics of a BENCHMARK.json document. *)
let bounds bench =
  List.filter_map
    (fun m ->
      match
        ( Option.bind (Json.member "name" m) Json.to_str,
          Option.bind (Json.member "better" m) Json.to_str,
          Option.bind (Json.member "bound" m) Json.to_num )
      with
      | Some metric, Some "lower", Some bound -> Some { metric; better = `Lower; bound }
      | Some metric, Some "higher", Some bound -> Some { metric; better = `Higher; bound }
      | _ -> None)
    (Json.to_list (Option.value (Json.member "end_to_end" bench) ~default:Json.Null))

let workloads doc = match Json.member "workloads" doc with Some (Json.Obj ws) -> ws | _ -> []

(* One side's view of a metric.  A single document brings its own
   quartiles (the spread between its passes); several documents, one
   per run, are summarized by the median and quartiles of their values,
   the run-to-run spread. *)
let side docs workload m =
  let found =
    List.filter_map
      (fun doc ->
        Option.bind (List.assoc_opt workload (workloads doc)) (fun w ->
            Option.bind (Json.member "metrics" w) (fun ms ->
                Option.bind (Json.member m ms) summary_of_json)))
      docs
  in
  match found with
  | [] -> None
  | [ s ] -> Some s
  | many -> Some (Stats.summarize (List.map (fun (s : Stats.summary) -> s.value) many))

type row = { workload : string; metric : string; verdict : t; base : float; change : float }

(* One row per workload of the base documents and per end-to-end
   metric; a metric missing from either side is unresolved. *)
let compare_docs ~bench base change =
  let names =
    List.fold_left
      (fun acc doc ->
        acc @ List.filter (fun n -> not (List.mem n acc)) (List.map fst (workloads doc)))
      [] base
  in
  List.concat_map
    (fun workload ->
      List.map
        (fun { metric; better; bound } ->
          match (side base workload metric, side change workload metric) with
          | Some a, Some b ->
            let verdict = judge ~better ~bound a b in
            { workload; metric; verdict; base = a.value; change = b.value }
          | _ -> { workload; metric; verdict = Unresolved; base = nan; change = nan })
        (bounds bench))
    names
