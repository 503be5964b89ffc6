type t = { width : int; cubes : Cube.t list }

let make ~width cubes =
  if width < 0 || width > 62 then invalid_arg "Cover.make: bad width";
  { width; cubes }

let empty ~width = make ~width []
let covers_minterm f m = List.exists (fun c -> Cube.covers_minterm c m) f.cubes
let n_cubes f = List.length f.cubes
let n_literals f = List.fold_left (fun a c -> a + Cube.n_literals c) 0 f.cubes
let covers_all f = List.for_all (covers_minterm f)
let disjoint_from f ms = not (List.exists (covers_minterm f) ms)
let eval = covers_minterm

let to_pattern f =
  String.concat "\n" (List.map (Cube.to_pattern ~width:f.width) f.cubes)

let to_sop names f =
  match f.cubes with
  | [] -> "0"
  | cs -> String.concat " + " (List.map (Cube.to_product names) cs)
