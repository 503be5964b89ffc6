type invariant = { weights : int array; token_sum : int }
type t_invariant = { counts : int array }

exception Too_many of int

let incidence net =
  let np = Petri.n_places net and nt = Petri.n_transitions net in
  let c = Array.make_matrix np nt 0 in
  for t = 0 to nt - 1 do
    List.iter (fun p -> c.(p).(t) <- c.(p).(t) - 1) (Petri.pre net t);
    List.iter (fun p -> c.(p).(t) <- c.(p).(t) + 1) (Petri.post net t)
  done;
  c

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let gcd_row r = Array.fold_left (fun g x -> gcd g x) 0 r

let normalize r =
  let g = gcd_row r in
  if g > 1 then Array.map (fun x -> x / g) r else Array.copy r

(* Farkas algorithm over an arbitrary [dim × ncons] matrix [m]: compute a
   generating set of the minimal non-negative integer vectors [y] with
   [yᵀ·m = 0].  Rows are (y | current value of yᵀ·m); constraints are
   eliminated one at a time by combining rows of opposite sign.
   P-invariants run this on the incidence matrix (places × transitions),
   T-invariants on its transpose. *)
let max_rows = 4096

let farkas m =
  let dim = Array.length m in
  let ncons = if dim = 0 then 0 else Array.length m.(0) in
  let rows =
    ref
      (List.init dim (fun i ->
           let y = Array.make dim 0 in
           y.(i) <- 1;
           (y, Array.copy m.(i))))
  in
  for k = 0 to ncons - 1 do
    let zero, nonzero = List.partition (fun (_, v) -> v.(k) = 0) !rows in
    let pos = List.filter (fun (_, v) -> v.(k) > 0) nonzero in
    let neg = List.filter (fun (_, v) -> v.(k) < 0) nonzero in
    let combined =
      List.concat_map
        (fun (y1, v1) ->
          List.map
            (fun (y2, v2) ->
              let a = v1.(k) and b = -v2.(k) in
              let y = Array.init dim (fun i -> (b * y1.(i)) + (a * y2.(i))) in
              let v =
                Array.init ncons (fun u -> (b * v1.(u)) + (a * v2.(u)))
              in
              let g = max 1 (gcd (gcd_row y) (gcd_row v)) in
              (Array.map (fun x -> x / g) y, Array.map (fun x -> x / g) v))
            neg)
        pos
    in
    rows := zero @ combined;
    if List.length !rows > max_rows then raise (Too_many max_rows)
  done;
  (* minimality: drop any vector whose support strictly contains the
     support of another *)
  let ys = List.sort_uniq compare (List.map (fun (y, _) -> normalize y) !rows) in
  let support y =
    let s = ref [] in
    Array.iteri (fun i w -> if w > 0 then s := i :: !s) y;
    !s
  in
  let subset a b = List.for_all (fun i -> List.mem i b) a in
  List.filter
    (fun y ->
      let s = support y in
      s <> []
      && not
           (List.exists
              (fun y' ->
                y' <> y
                &&
                let s' = support y' in
                subset s' s && not (subset s s'))
              ys))
    ys

let p_invariants net =
  let minimal = farkas (incidence net) in
  let initial = Petri.initial_marking net in
  List.map
    (fun y ->
      let sum = ref 0 in
      Array.iteri (fun p w -> sum := !sum + (w * Marking.tokens initial p)) y;
      { weights = y; token_sum = !sum })
    minimal

let t_invariants net =
  let c = incidence net in
  let np = Petri.n_places net and nt = Petri.n_transitions net in
  let ct = Array.init nt (fun t -> Array.init np (fun p -> c.(p).(t))) in
  List.map (fun x -> { counts = x }) (farkas ct)

let covered net invs =
  let np = Petri.n_places net in
  let ok = ref true in
  for p = 0 to np - 1 do
    if not (List.exists (fun i -> i.weights.(p) > 0) invs) then ok := false
  done;
  !ok

let check _net inv marking =
  let sum = ref 0 in
  Array.iteri (fun p w -> sum := !sum + (w * Marking.tokens marking p)) inv.weights;
  !sum = inv.token_sum

let pp net ppf inv =
  Format.fprintf ppf "Σ(";
  let first = ref true in
  Array.iteri
    (fun p w ->
      if w > 0 then begin
        if not !first then Format.fprintf ppf " + ";
        first := false;
        if w = 1 then Format.fprintf ppf "%s" (Petri.place_name net p)
        else Format.fprintf ppf "%d·%s" w (Petri.place_name net p)
      end)
    inv.weights;
  Format.fprintf ppf ") = %d" inv.token_sum
