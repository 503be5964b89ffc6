(* The boxed edge view the reference engines were written against:
   each edge one record whose label is an event constructor.  [Sg] keeps
   its edges as flat arrays; the references read and build graphs
   through this view, so their algorithms read as they were written. *)

type label = Ev of int * Sg.edge_dir
type edge = { src : int; label : label; dst : int }

let edge sg e =
  {
    src = Sg.edge_src sg e;
    label = Ev (Sg.edge_signal sg e, Sg.edge_dir sg e);
    dst = Sg.edge_dst sg e;
  }

(* every edge, in edge order *)
let edges sg = Array.init (Sg.n_edges sg) (edge sg)

(* the edges out of (into) [m], in edge order *)
let succ sg m =
  let acc = ref [] in
  Sg.iter_succ sg m (fun e -> acc := edge sg e :: !acc);
  List.rev !acc

let pred sg m =
  let acc = ref [] in
  Sg.iter_pred sg m (fun e -> acc := edge sg e :: !acc);
  List.rev !acc

(* [Sg.make] over a list of records, in list order *)
let make ~name ~signals ~codes ~edges ~initial =
  let edges = Array.of_list edges in
  Sg.make ~name ~signals ~codes
    ~src:(Array.map (fun e -> e.src) edges)
    ~lab:(Array.map (fun { label = Ev (s, d); _ } -> Sg.label_code s d) edges)
    ~dst:(Array.map (fun e -> e.dst) edges)
    ~initial

(* a reachability graph's edge buffer as (source, transition, target)
   triples, in edge order *)
let reach_edges (g : Reach.t) =
  let b = g.Reach.edges in
  Array.init (Reach.n_edges g) (fun e -> (b.(3 * e), b.((3 * e) + 1), b.((3 * e) + 2)))
