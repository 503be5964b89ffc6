(* Order statistics over samples.  [quartiles] follows Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so
   the spreads recorded here are the ones a reader recomputes from the
   raw samples with the standard library. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match Array.of_list (sorted xs) with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* (q1, q3) *)
let quartiles xs =
  match Array.of_list (sorted xs) with
  | [||] -> invalid_arg "Stats.quartiles: no samples"
  | [| x |] -> (x, x)
  | a ->
    let ld = Array.length a in
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float (4 - delta)) +. (a.(j) *. float delta)) /. 4.
    in
    (cut 1, cut 3)

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float (List.length xs))

(* A metric as the results document records it: the median of its
   samples with the quartiles that bound its run-to-run spread. *)
type summary = { value : float; q1 : float; q3 : float; n : int }

let summarize xs =
  let q1, q3 = quartiles xs in
  { value = median xs; q1; q3; n = List.length xs }

(* A value with no spread: a deterministic count, or a statistic
   derived from per-sample medians whose spread is reported elsewhere. *)
let exact v = { value = v; q1 = v; q3 = v; n = 1 }
