(* Spans recorded around calls into the program's layers.  They stay in
   memory and are written out once, when the benchmark ends. *)

type t = {
  id : int;
  parent : int option;  (** the span that was open when this one began *)
  name : string;
  workload : string;
  stg : string;
  start : float;  (** seconds since the recorder's epoch *)
  stop : float;
  alloc_words : float;  (** words allocated by this domain inside the span *)
}

type recorder = {
  epoch : float;
  mutable next : int;
  mutable open_ : int list;
  mutable spans : t list;  (** most recent first *)
  mutable workload : string;
  mutable stg : string;
}

let create () =
  { epoch = Unix.gettimeofday (); next = 0; open_ = []; spans = []; workload = ""; stg = "" }

let words () = Gc.allocated_bytes () /. float (Sys.word_size / 8)

(* [record r name f] runs [f] inside a span that is a child of the
   innermost open span. *)
let record r name f =
  let id = r.next in
  r.next <- id + 1;
  let parent = match r.open_ with p :: _ -> Some p | [] -> None in
  r.open_ <- id :: r.open_;
  let w0 = words () in
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      let w1 = words () in
      r.open_ <- List.tl r.open_;
      r.spans <-
        {
          id;
          parent;
          name;
          workload = r.workload;
          stg = r.stg;
          start = t0 -. r.epoch;
          stop = t1 -. r.epoch;
          alloc_words = w1 -. w0;
        }
        :: r.spans)

let duration s = s.stop -. s.start

(* A span's self time: its duration minus the part of its interval that
   its children cover (overlapping children are counted once). *)
let self_time s children =
  let clipped =
    List.filter_map
      (fun c ->
        let a = Float.max s.start c.start and b = Float.min s.stop c.stop in
        if b > a then Some (a, b) else None)
      children
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        let a = Float.max a reach in
        if b > a then (acc +. (b -. a), b) else (acc, reach))
      (0., neg_infinity)
      (List.sort compare clipped)
  in
  duration s -. covered

(* Sums over the spans with a given name. *)
let total_time spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. spans

let total_alloc spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. s.alloc_words else acc) 0. spans

let to_json spans =
  let by_id = List.sort (fun a b -> compare a.id b.id) spans in
  let kids = Hashtbl.create 64 in
  List.iter (fun s -> Option.iter (fun p -> Hashtbl.add kids p s) s.parent) spans;
  Json.Obj
    [
      ("schema", Json.Str "mpsyn-e2e-trace/1");
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Num (float s.id));
                   ( "parent",
                     match s.parent with None -> Json.Null | Some p -> Json.Num (float p) );
                   ("name", Json.Str s.name);
                   ("workload", Json.Str s.workload);
                   ("stg", Json.Str s.stg);
                   ("start", Json.Num s.start);
                   ("end", Json.Num s.stop);
                   ("self", Json.Num (self_time s (Hashtbl.find_all kids s.id)));
                   ("alloc_words", Json.Num s.alloc_words);
                 ])
             by_id) );
    ]
