type t = {
  net : Petri.t;
  markings : Marking.t array;
  edges : (int * int * int) array;
  succ : (int * int) list array;
  pred : (int * int) list array;
}

exception Too_many_states of int

(* Append-only array that doubles when full.  Exploration used to
   accumulate reversed lists and reverse at the end, costing three
   words per element plus the final walk; this keeps the elements flat
   and in order. *)
module Grow = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create ~capacity dummy = { data = Array.make capacity dummy; len = 0 }

  let push g x =
    if g.len = Array.length g.data then begin
      let d = Array.make (2 * g.len) x in
      Array.blit g.data 0 d 0 g.len;
      g.data <- d
    end;
    g.data.(g.len) <- x;
    g.len <- g.len + 1

  let to_array g = Array.sub g.data 0 g.len
end

let explore ?(max_states = 100_000) net =
  Counter.bump Counter.reach;
  (* Interning hashes the packed bitvector form of each marking — a
     short flat string — rather than the int-array marking itself, and
     the table is preallocated from the exploration cap so the hot
     phase never rehashes. *)
  let index : (string, int) Hashtbl.t =
    Hashtbl.create (max 1024 (min max_states 65_536))
  in
  let cap = max 64 (min max_states 4_096) in
  let markings = Grow.create ~capacity:cap (Petri.initial_marking net) in
  let edges = Grow.create ~capacity:cap (-1, -1, -1) in
  let queue = Queue.create () in
  let intern m =
    let key = Marking.pack m in
    match Hashtbl.find_opt index key with
    | Some id -> id
    | None ->
      if markings.Grow.len >= max_states then
        raise (Too_many_states max_states);
      let id = markings.Grow.len in
      Hashtbl.add index key id;
      Grow.push markings m;
      Queue.add (id, m) queue;
      id
  in
  let (_ : int) = intern (Petri.initial_marking net) in
  while not (Queue.is_empty queue) do
    let src, m = Queue.take queue in
    let ts = Petri.enabled_transitions net m in
    List.iter
      (fun t ->
        let m' = Petri.fire net m t in
        let dst = intern m' in
        Grow.push edges (src, t, dst))
      ts
  done;
  let markings = Grow.to_array markings in
  let edges = Grow.to_array edges in
  let succ = Array.make (Array.length markings) [] in
  let pred = Array.make (Array.length markings) [] in
  Array.iter
    (fun (s, t, d) ->
      succ.(s) <- (t, d) :: succ.(s);
      pred.(d) <- (t, s) :: pred.(d))
    edges;
  Array.iteri (fun i l -> succ.(i) <- List.rev l) succ;
  Array.iteri (fun i l -> pred.(i) <- List.rev l) pred;
  { net; markings; edges; succ; pred }

let n_states g = Array.length g.markings
let n_edges g = Array.length g.edges

let deadlocks g =
  let acc = ref [] in
  for i = n_states g - 1 downto 0 do
    if g.succ.(i) = [] then acc := i :: !acc
  done;
  !acc

let is_safe g = Array.for_all Marking.is_safe g.markings

(* Tarjan's strongly-connected-components algorithm.  Recursion depth is
   bounded by the number of states, which the exploration cap keeps small
   enough for the default stack. *)
let sccs g =
  let n = n_states g in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (_, w) ->
        if index.(w) < 0 then begin
          strongconnect w;
          if lowlink.(w) < lowlink.(v) then lowlink.(v) <- lowlink.(w)
        end
        else if on_stack.(w) && index.(w) < lowlink.(v) then
          lowlink.(v) <- index.(w))
      g.succ.(v);
    if lowlink.(v) = index.(v) then begin
      let comp = ref [] in
      let continue = ref true in
      while !continue do
        match !stack with
        | [] -> continue := false
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          comp := w :: !comp;
          if w = v then continue := false
      done;
      components := Array.of_list !comp :: !components
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.rev !components

let strongly_connected g =
  n_states g > 0 && match sccs g with [ _ ] -> true | _ -> false

let fireable_transitions g =
  let seen = Hashtbl.create 64 in
  Array.iter (fun (_, t, _) -> Hashtbl.replace seen t ()) g.edges;
  List.sort Int.compare (Hashtbl.fold (fun t () acc -> t :: acc) seen [])

let quasi_live g =
  List.length (fireable_transitions g) = Petri.n_transitions g.net
