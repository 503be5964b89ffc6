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
  boundary : bool;  (* drives an implemented signal: fired only on demand *)
}

type t = {
  nl : Netlist.t;
  names : string array;  (* wire index -> name; boundary wires first *)
  index : (string, int) Hashtbl.t;
  n_boundary : int;  (* inputs @ outputs *)
  n_inputs : int;
  gates : gate array;  (* netlist order: topological for internal wires *)
  driver : int array;  (* wire -> driving gate, -1 for primary inputs *)
  fanout : int list array;  (* wire -> internal gate ids reading it *)
  values : bool array;
  scratch : bool array;
  (* internal-gate scheduling queue (indices into [gates]) *)
  queue : int array;
  mutable qlen : int;
  queued : bool array;
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
  let driver = Array.make n (-1) in
  let fanout = Array.make n [] in
  Array.iteri
    (fun gi g ->
      driver.(g.out) <- gi;
      if not g.boundary then
        Array.iter (fun w -> fanout.(w) <- gi :: fanout.(w)) g.ins)
    gates;
  Array.iteri (fun w l -> fanout.(w) <- List.rev l) fanout;
  List.iter
    (fun o ->
      if driver.(wire o) < 0 then
        invalid_arg (Printf.sprintf "Gatesim.of_netlist: output %s undriven" o))
    nl.Netlist.outputs;
  {
    nl;
    names = Array.of_list (List.rev !names);
    index;
    n_boundary;
    n_inputs = List.length nl.Netlist.inputs;
    gates;
    driver;
    fanout;
    values = Array.make n false;
    scratch = Array.make n false;
    queue = Array.make (max 1 (Array.length gates)) 0;
    qlen = 0;
    queued = Array.make (max 1 (Array.length gates)) false;
  }

let netlist t = t.nl

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

let excited_gate t gi =
  let g = t.gates.(gi) in
  t.values.(g.out) <> eval_gate t.values g

let enqueue t gi =
  if (not t.queued.(gi)) && excited_gate t gi then begin
    t.queued.(gi) <- true;
    t.queue.(t.qlen) <- gi;
    t.qlen <- t.qlen + 1
  end

let wake_fanout t w = List.iter (enqueue t) t.fanout.(w)

(* Fire excited internal gates one at a time until quiescent.  The
   internal network is acyclic, so this terminates; the step cap exists
   to fail loudly if that invariant is ever broken. *)
let settle ?rand t =
  let fired = ref 0 in
  let cap = 1000 + (64 * Array.length t.gates) in
  while t.qlen > 0 do
    let j =
      match rand with
      | Some r -> Random.State.int r t.qlen
      | None -> 0
    in
    let gi = t.queue.(j) in
    t.queue.(j) <- t.queue.(t.qlen - 1);
    t.qlen <- t.qlen - 1;
    t.queued.(gi) <- false;
    if excited_gate t gi then begin
      let g = t.gates.(gi) in
      t.values.(g.out) <- eval_gate t.values g;
      incr fired;
      if !fired > cap then
        failwith "Gatesim.settle: internal network oscillates";
      wake_fanout t g.out
    end
  done;
  !fired

let load t assignment =
  t.qlen <- 0;
  Array.fill t.queued 0 (Array.length t.queued) false;
  let seen = Array.make t.n_boundary false in
  List.iter
    (fun (w, v) ->
      let i = wire_index t w in
      if i >= t.n_boundary then
        invalid_arg (Printf.sprintf "Gatesim.load: %s is not a boundary wire" w);
      seen.(i) <- true;
      t.values.(i) <- v)
    assignment;
  for i = 0 to t.n_boundary - 1 do
    if not seen.(i) then
      invalid_arg
        (Printf.sprintf "Gatesim.load: boundary wire %s unset" t.names.(i))
  done;
  (* one topological pass settles the acyclic internal network *)
  Array.iter
    (fun g -> if not g.boundary then t.values.(g.out) <- eval_gate t.values g)
    t.gates

let value t w = t.values.(wire_index t w)

let boundary t =
  List.init t.n_boundary (fun i -> (t.names.(i), t.values.(i)))

let set_input ?rand t w v =
  let i = wire_index t w in
  if i >= t.n_inputs then
    invalid_arg (Printf.sprintf "Gatesim.set_input: %s is not an input" w);
  if t.values.(i) = v then 0
  else begin
    t.values.(i) <- v;
    wake_fanout t i;
    settle ?rand t
  end

let fire_output ?rand t o =
  let i = wire_index t o in
  if i < t.n_inputs || i >= t.n_boundary then
    invalid_arg (Printf.sprintf "Gatesim.fire_output: %s is not an output" o);
  let g = t.gates.(t.driver.(i)) in
  let next = eval_gate t.values g in
  if next = t.values.(i) then
    invalid_arg (Printf.sprintf "Gatesim.fire_output: %s is not excited" o);
  t.values.(i) <- next;
  wake_fanout t i;
  settle ?rand t

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
