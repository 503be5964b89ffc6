type kind =
  | K_inv
  | K_and
  | K_or
  | K_wire
  | K_const of bool

type gate = {
  out : int;
  kind : kind;
  ins : int array;
  boundary : bool;  (* drives an implemented signal *)
}

type t = {
  names : string array;  (* wire index -> name; boundary wires first *)
  index : (string, int) Hashtbl.t;
  n_boundary : int;  (* inputs @ outputs *)
  n_inputs : int;
  gates : gate array;  (* netlist order: topological for internal wires *)
  scratch : bool array;
}

let of_netlist (nl : Netlist.t) =
  let index = Hashtbl.create 64 in
  let names = ref [] and n_wires = ref 0 in
  let add_wire w =
    match Hashtbl.find_opt index w with
    | Some i -> i
    | None ->
      let i = !n_wires in
      Hashtbl.add index w i;
      names := w :: !names;
      incr n_wires;
      i
  in
  List.iter (fun w -> ignore (add_wire w)) nl.Netlist.inputs;
  List.iter (fun w -> ignore (add_wire w)) nl.Netlist.outputs;
  let n_boundary = !n_wires in
  if n_boundary > 62 then
    invalid_arg "Gatesim.of_netlist: more than 62 boundary wires";
  let is_output = Hashtbl.create 16 in
  List.iter (fun o -> Hashtbl.replace is_output o ()) nl.Netlist.outputs;
  (* First pass declares every driven wire so fanin lookups can't miss
     forward references (the netlist is topological for internal wires,
     but feedback reads outputs declared above). *)
  List.iter
    (fun g ->
      ignore
        (add_wire
           (match g with
           | Netlist.Inv { out; _ }
           | Netlist.And { out; _ }
           | Netlist.Or { out; _ }
           | Netlist.Wire { out; _ }
           | Netlist.Const { out; _ } -> out)))
    nl.Netlist.gates;
  let wire w =
    match Hashtbl.find_opt index w with
    | Some i -> i
    | None ->
      invalid_arg (Printf.sprintf "Gatesim.of_netlist: undriven wire %s" w)
  in
  let compile g =
    let out, kind, ins =
      match g with
      | Netlist.Inv { out; input } -> (out, K_inv, [| wire input |])
      | Netlist.And { out; inputs } ->
        (out, K_and, Array.of_list (List.map wire inputs))
      | Netlist.Or { out; inputs } ->
        (out, K_or, Array.of_list (List.map wire inputs))
      | Netlist.Wire { out; input } -> (out, K_wire, [| wire input |])
      | Netlist.Const { out; value } -> (out, K_const value, [||])
    in
    { out = wire out; kind; ins; boundary = Hashtbl.mem is_output out }
  in
  let gates = Array.of_list (List.map compile nl.Netlist.gates) in
  let n = !n_wires in
  let driven = Array.make n false in
  Array.iter (fun g -> driven.(g.out) <- true) gates;
  List.iter
    (fun o ->
      if not driven.(wire o) then
        invalid_arg (Printf.sprintf "Gatesim.of_netlist: output %s undriven" o))
    nl.Netlist.outputs;
  {
    names = Array.of_list (List.rev !names);
    index;
    n_boundary;
    n_inputs = List.length nl.Netlist.inputs;
    gates;
    scratch = Array.make n false;
  }

let wire_index t w =
  match Hashtbl.find_opt t.index w with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Gatesim: unknown wire %s" w)

let eval_gate vals (g : gate) =
  match g.kind with
  | K_inv -> not vals.(g.ins.(0))
  | K_and -> Array.for_all (fun w -> vals.(w)) g.ins
  | K_or -> Array.exists (fun w -> vals.(w)) g.ins
  | K_wire -> vals.(g.ins.(0))
  | K_const b -> b

(* ---- mask interface ---- *)

let mask_width t = t.n_boundary

let mask_index t w =
  let i = wire_index t w in
  if i >= t.n_boundary then
    invalid_arg (Printf.sprintf "Gatesim.mask_index: %s is internal" w);
  i

let wire_of_bit t i =
  if i < 0 || i >= t.n_boundary then invalid_arg "Gatesim.wire_of_bit";
  t.names.(i)

let mask_of t assignment =
  let m = ref 0 in
  let seen = ref 0 in
  List.iter
    (fun (w, v) ->
      let i = mask_index t w in
      seen := !seen lor (1 lsl i);
      if v then m := !m lor (1 lsl i))
    assignment;
  if !seen <> (1 lsl t.n_boundary) - 1 then
    invalid_arg "Gatesim.mask_of: assignment does not cover the boundary";
  !m

let eval_mask t mask =
  let vals = t.scratch in
  for i = 0 to t.n_boundary - 1 do
    vals.(i) <- mask land (1 lsl i) <> 0
  done;
  let next = ref (mask land ((1 lsl t.n_inputs) - 1)) in
  Array.iter
    (fun g ->
      let v = eval_gate vals g in
      (* boundary gates feed the result only: concurrent reads of the
         output wire must see the presented (feedback) value *)
      if g.boundary then begin
        if v then next := !next lor (1 lsl g.out)
      end
      else vals.(g.out) <- v)
    t.gates;
  !next
