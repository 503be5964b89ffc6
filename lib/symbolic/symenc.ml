(* Bitmask encoding of a 1-safe net.

   Markings are native-int bitmasks over the net's own place ids (bit
   [p] set iff place [p] is marked), which is what the reachability
   sweep walks instead of allocating marking arrays: firing is two
   logical ops, and enabling is one subset test. *)

type t = {
  net : Petri.t;
  n_places : int;
  n_transitions : int;
  pre_mask : int array; (* bit p set iff place p is a fanin of t *)
  post_mask : int array; (* bit p set iff place p is a fanout of t *)
  init_mask : int;
}

(* One bit per place must fit a native int alongside the sign bit; 62
   matches the visible-signal cap of [Sg.make], so wider nets are not a
   practical loss — they fall back to the explicit builder. *)
let max_places = 62

let unsupported net =
  let np = Petri.n_places net in
  if np > max_places then
    Some
      (Printf.sprintf "%d places exceed the %d-place mask encoding" np
         max_places)
  else if not (Marking.is_safe (Petri.initial_marking net)) then
    Some "initial marking is not 1-safe"
  else None

let mask_of_places ps = List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 ps

let make net =
  (match unsupported net with
  | Some reason -> invalid_arg ("Symenc.make: " ^ reason)
  | None -> ());
  let np = Petri.n_places net and nt = Petri.n_transitions net in
  let pre_mask = Array.init nt (fun t -> mask_of_places (Petri.pre net t)) in
  let post_mask = Array.init nt (fun t -> mask_of_places (Petri.post net t)) in
  let m0 = Petri.initial_marking net in
  let init_mask = ref 0 in
  for p = 0 to np - 1 do
    if Marking.tokens m0 p > 0 then init_mask := !init_mask lor (1 lsl p)
  done;
  {
    net;
    n_places = np;
    n_transitions = nt;
    pre_mask;
    post_mask;
    init_mask = !init_mask;
  }
