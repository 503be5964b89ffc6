(* Absolute wall time; [infinity] means no deadline. *)
type t = float

let none = infinity

let of_limit = function
  | None -> none
  | Some s -> Unix.gettimeofday () +. s

let expired t = t < infinity && Unix.gettimeofday () >= t
