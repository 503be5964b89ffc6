type t = V0 | V1 | Up | Dn

let equal (a : t) b = a = b
let binary = function V0 | Up -> false | V1 | Dn -> true
let excited = function Up | Dn -> true | V0 | V1 -> false

let edge_ok a b =
  match (a, b) with
  | V0, V0 | V1, V1 | Up, Up | Dn, Dn -> true
  | V0, Up | Up, V1 | V1, Dn | Dn, V0 -> true
  | V0, (V1 | Dn) | V1, (V0 | Up) | Up, (V0 | Dn) | Dn, (V1 | Up) -> false

type presence = int

let absent = 0
let present p v = p lor match v with V0 -> 1 | V1 -> 2 | Up -> 4 | Dn -> 8
let union p q = p lor q

let merge_presence p =
  if p land 12 = 12 then None
  else if p land 4 <> 0 then Some Up
  else if p land 8 <> 0 then Some Dn
  else match p with 1 -> Some V0 | 2 -> Some V1 | _ -> None

let merge vs = merge_presence (List.fold_left present absent vs)

let of_bits ~a ~b =
  match (a, b) with
  | false, false -> V0
  | false, true -> V1
  | true, false -> Up
  | true, true -> Dn

let to_bits = function
  | V0 -> (false, false)
  | V1 -> (false, true)
  | Up -> (true, false)
  | Dn -> (true, true)

let to_string = function V0 -> "0" | V1 -> "1" | Up -> "Up" | Dn -> "Dn"
