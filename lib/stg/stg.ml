type label = Event of Signal.event | Dummy

type t = {
  name : string;
  net : Petri.t;
  labels : label array;
  signal_names : string array;
  kinds : Signal.kind array;
  by_name : (string, int) Hashtbl.t;
  by_signal : int list array; (* signal -> transitions *)
}

let make ~net ~labels ~signal_names ~kinds ~name =
  let ns = Array.length signal_names in
  if Array.length kinds <> ns then
    invalid_arg "Stg.make: kinds and signal_names disagree";
  if Array.length labels <> Petri.n_transitions net then
    invalid_arg "Stg.make: one label per net transition required";
  Array.iter
    (function
      | Dummy -> ()
      | Event e ->
        if e.Signal.signal < 0 || e.Signal.signal >= ns then
          invalid_arg "Stg.make: label mentions unknown signal")
    labels;
  let by_name = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace by_name n i) signal_names;
  let by_signal = Array.make ns [] in
  Array.iteri
    (fun t l ->
      match l with
      | Dummy -> ()
      | Event e -> by_signal.(e.Signal.signal) <- t :: by_signal.(e.Signal.signal))
    labels;
  Array.iteri (fun i l -> by_signal.(i) <- List.rev l) by_signal;
  { name; net; labels; signal_names; kinds; by_name; by_signal }

let name stg = stg.name
let net stg = stg.net
let n_signals stg = Array.length stg.signal_names
let signal_name stg s = stg.signal_names.(s)
let signal_names stg = stg.signal_names
let kind stg s = stg.kinds.(s)
let label stg t = stg.labels.(t)

let find_signal stg n =
  match Hashtbl.find_opt stg.by_name n with
  | Some s -> s
  | None -> raise Not_found

let signals_of_kind stg k =
  let acc = ref [] in
  for s = n_signals stg - 1 downto 0 do
    if Signal.equal_kind stg.kinds.(s) k then acc := s :: !acc
  done;
  !acc

let inputs stg = signals_of_kind stg Signal.Input

let non_inputs stg =
  let acc = ref [] in
  for s = n_signals stg - 1 downto 0 do
    if Signal.non_input stg.kinds.(s) then acc := s :: !acc
  done;
  !acc

let transitions_of stg s = stg.by_signal.(s)

let trigger_signals stg s =
  (* Walk backwards from each transition of [s] through fanin places to
     producer transitions; dummies are silent, so recurse through them. *)
  let seen_trans = Hashtbl.create 16 in
  let signals = Hashtbl.create 8 in
  let rec producers t =
    List.iter
      (fun p ->
        List.iter
          (fun t' ->
            if not (Hashtbl.mem seen_trans t') then begin
              Hashtbl.add seen_trans t' ();
              match stg.labels.(t') with
              | Event e -> Hashtbl.replace signals e.Signal.signal ()
              | Dummy -> producers t'
            end)
          (Petri.place_pre stg.net p))
      (Petri.pre stg.net t)
  in
  List.iter producers (transitions_of stg s);
  List.sort Int.compare (Hashtbl.fold (fun k () acc -> k :: acc) signals [])

type issue =
  | Unused_signal of int
  | Dead_transition of int
  | Unsafe
  | Not_strongly_connected
  | Deadlock of Marking.t

let pp_issue stg ppf = function
  | Unused_signal s ->
    Format.fprintf ppf "signal %s has no transition" stg.signal_names.(s)
  | Dead_transition t ->
    Format.fprintf ppf "transition %s can never fire"
      (Petri.transition_name stg.net t)
  | Unsafe -> Format.fprintf ppf "net is not 1-safe"
  | Not_strongly_connected ->
    Format.fprintf ppf "reachability graph is not strongly connected"
  | Deadlock m ->
    Format.fprintf ppf "deadlock at %a"
      (Marking.pp_named
         (Array.init (Petri.n_places stg.net) (Petri.place_name stg.net)))
      m

let validate stg =
  let issues = ref [] in
  for s = 0 to n_signals stg - 1 do
    if stg.by_signal.(s) = [] then issues := Unused_signal s :: !issues
  done;
  let g = Reach.explore stg.net in
  if not (Reach.is_safe g) then issues := Unsafe :: !issues;
  let fireable = Reach.fireable_transitions g in
  for t = 0 to Petri.n_transitions stg.net - 1 do
    if not (List.mem t fireable) then issues := Dead_transition t :: !issues
  done;
  List.iter
    (fun d -> issues := Deadlock g.Reach.markings.(d) :: !issues)
    (Reach.deadlocks g);
  if not (Reach.strongly_connected g) then
    issues := Not_strongly_connected :: !issues;
  List.rev !issues

let pp ppf stg =
  let count k = List.length (signals_of_kind stg k) in
  Format.fprintf ppf "stg %s: %d inputs, %d outputs, %d internal; %a" stg.name
    (count Signal.Input) (count Signal.Output) (count Signal.Internal) Petri.pp
    stg.net
