type violation =
  | Interface_mismatch of string
  | Illegal_output of { signal : string; rising : bool; spec_state : int }
  | Output_hazard of { disabled : string; by : string; spec_state : int }
  | Missing_output of { pending : string list; spec_state : int }
  | Divergence of { spec_state : int }
  | Unrealized_edge of { signal : string; rising : bool; src : int }
  | Refinement_stuck of { impl_state : int; spec_state : int }
  | Capped of int

type stats = {
  product_states : int;
  product_edges : int;
  spec_edges_covered : int;
  spec_edges_total : int;
}

type report = { violations : violation list; stats : stats }

let conforms r = r.violations = []

exception Interface of string

(* Deduplication key: one report per distinct defect shape, not one per
   product state it shows up in. *)
let dedup_key = function
  | Interface_mismatch s -> "i:" ^ s
  | Illegal_output { signal; rising; _ } ->
    Printf.sprintf "o:%s%c" signal (if rising then '+' else '-')
  | Output_hazard { disabled; by; _ } -> Printf.sprintf "h:%s:%s" disabled by
  | Missing_output { pending; _ } -> "m:" ^ String.concat "," pending
  | Divergence _ -> "d"
  | Unrealized_edge { signal; rising; src } ->
    Printf.sprintf "u:%s%c:%d" signal (if rising then '+' else '-') src
  | Refinement_stuck { impl_state; _ } -> Printf.sprintf "s:%d" impl_state
  | Capped _ -> "c"

let event_name sg (s, d) =
  Sg.signal_name sg s ^ (match d with Sg.R -> "+" | Sg.F -> "-")

(* Distinct violations after which an exploration stops. *)
let max_violations = 32

(* What an exploration has found so far: its distinct violations, one
   per [dedup_key], newest first; the product edges it walked; and the
   spec edges it exercised. *)
type log = {
  spec : Sg.t;
  mutable found : violation list;
  keys : (string, unit) Hashtbl.t;
  mutable walked : int;
  covered : bool array;
}

let new_log spec =
  {
    spec;
    found = [];
    keys = Hashtbl.create 16;
    walked = 0;
    covered = Array.make (Sg.n_edges spec) false;
  }

let add_violation log v =
  let k = dedup_key v in
  if not (Hashtbl.mem log.keys k) then begin
    Hashtbl.add log.keys k ();
    log.found <- v :: log.found
  end

let full log = Hashtbl.length log.keys >= max_violations

(* The report of an exploration that expanded [states] product states.
   One that was not capped must have exercised every spec edge. *)
let report log ~capped ~states =
  let spec = log.spec in
  if not capped then
    Array.iteri
      (fun e c ->
        if not c then
          add_violation log
            (Unrealized_edge
               {
                 signal = Sg.signal_name spec (Sg.edge_signal spec e);
                 rising = Sg.edge_dir spec e = Sg.R;
                 src = Sg.edge_src spec e;
               }))
      log.covered;
  {
    violations = List.rev log.found;
    stats =
      {
        product_states = states;
        product_edges = log.walked;
        spec_edges_covered =
          Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 log.covered;
        spec_edges_total = Array.length log.covered;
      };
  }

let interface_mismatch msg =
  {
    violations = [ Interface_mismatch msg ];
    stats =
      { product_states = 0; product_edges = 0; spec_edges_covered = 0; spec_edges_total = 0 };
  }

let check ?(max_states = 1_000_000) ~spec ~initial nl =
  Counter.bump Counter.sim;
  let log = new_log spec in
  try
    let sim = Gatesim.of_netlist nl in
    let width = Gatesim.mask_width sim in
    (* spec signal id -> boundary bit, with interface validation *)
    let ns = Sg.n_signals spec in
    let input_names =
      List.sort_uniq String.compare nl.Netlist.inputs
    in
    let spec_inputs =
      List.sort_uniq String.compare
        (List.filter_map
           (fun s ->
             if Sg.non_input spec s then None else Some (Sg.signal_name spec s))
           (List.init ns Fun.id))
    in
    if input_names <> spec_inputs then
      raise
        (Interface
           (Printf.sprintf "netlist inputs {%s} do not match spec inputs {%s}"
              (String.concat "," input_names)
              (String.concat "," spec_inputs)));
    let spec_bit =
      Array.init ns (fun s ->
          let n = Sg.signal_name spec s in
          match Gatesim.mask_index sim n with
          | b -> b
          | exception Invalid_argument _ ->
            raise
              (Interface
                 (Printf.sprintf "spec signal %s is not implemented" n)))
    in
    let spec_of_bit = Array.make width None in
    Array.iteri (fun s b -> spec_of_bit.(b) <- Some s) spec_bit;
    let outputs_bits =
      List.map (fun o -> Gatesim.mask_index sim o) nl.Netlist.outputs
    in
    (* spec code of state m, placed on the boundary bits *)
    let spec_mask = Array.make (Sg.n_states spec) 0 in
    let spec_bits_mask =
      Array.fold_left (fun acc b -> acc lor (1 lsl b)) 0 spec_bit
    in
    for m = 0 to Sg.n_states spec - 1 do
      let v = ref 0 in
      for s = 0 to ns - 1 do
        if Sg.bit spec m s then v := !v lor (1 lsl spec_bit.(s))
      done;
      spec_mask.(m) <- !v
    done;
    (* initial product state *)
    let mask0 = Gatesim.mask_of sim initial in
    let m0 = Sg.initial spec in
    if mask0 land spec_bits_mask <> spec_mask.(m0) then
      raise
        (Interface
           "initial valuation disagrees with the spec's initial state code");
    (* memoized complex-gate step *)
    let next_cache = Hashtbl.create 1024 in
    let eval mask =
      match Hashtbl.find_opt next_cache mask with
      | Some v -> v
      | None ->
        let v = Gatesim.eval_mask sim mask in
        Hashtbl.add next_cache mask v;
        v
    in
    (* product exploration *)
    let visited : (int * int, int) Hashtbl.t = Hashtbl.create 1024 in
    let node_state = ref [] and n_nodes = ref 0 in
    let queue = Queue.create () in
    let silent = ref [] in
    let visit m mask =
      let key = (m, mask) in
      match Hashtbl.find_opt visited key with
      | Some id -> id
      | None ->
        let id = !n_nodes in
        Hashtbl.add visited key id;
        node_state := key :: !node_state;
        incr n_nodes;
        Queue.add (id, m, mask) queue;
        id
    in
    let capped = ref false in
    ignore (visit m0 mask0);
    while (not (Queue.is_empty queue)) && not !capped do
      if full log then Queue.clear queue
      else begin
        let id, m, mask = Queue.pop queue in
        if id >= max_states then begin
          capped := true;
          add_violation log (Capped max_states)
        end
        else begin
          let next = eval mask in
          let excited = next lxor mask in
          (* one fired transition: flip [bit], land in spec state [m'] *)
          let hazard_check ~by mask' =
            let next' = eval mask' in
            List.iter
              (fun b ->
                if
                  excited land (1 lsl b) <> 0
                  && mask' land (1 lsl b) = mask land (1 lsl b)
                  && next' land (1 lsl b) <> next land (1 lsl b)
                then
                  add_violation log
                    (Output_hazard
                       { disabled = Gatesim.wire_of_bit sim b; by; spec_state = m }))
              outputs_bits
          in
          let fire ~by ~silent_move bit m' =
            let mask' = mask lxor (1 lsl bit) in
            hazard_check ~by mask';
            log.walked <- log.walked + 1;
            let id' = visit m' mask' in
            if silent_move then silent := (id, id') :: !silent
          in
          (* circuit moves: every excited implemented signal may fire *)
          List.iter
            (fun b ->
              if excited land (1 lsl b) <> 0 then begin
                let rising = next land (1 lsl b) <> 0 in
                let name = Gatesim.wire_of_bit sim b in
                match spec_of_bit.(b) with
                | None ->
                  (* hidden state signal: silent move *)
                  fire ~by:name ~silent_move:true b m
                | Some s ->
                  let l = Sg.label_code s (if rising then Sg.R else Sg.F) in
                  let matched = ref false in
                  Sg.iter_succ spec m (fun e ->
                      if Sg.edge_label spec e = l then begin
                        matched := true;
                        log.covered.(e) <- true;
                        fire ~by:name ~silent_move:false b (Sg.edge_dst spec e)
                      end);
                  if not !matched then
                    add_violation log
                      (Illegal_output { signal = name; rising; spec_state = m })
              end)
            outputs_bits;
          (* environment moves: any input transition the spec allows *)
          Sg.iter_succ spec m (fun e ->
              let s = Sg.edge_signal spec e in
              if not (Sg.non_input spec s) then begin
                log.covered.(e) <- true;
                fire ~by:(Sg.signal_name spec s) ~silent_move:false
                  spec_bit.(s) (Sg.edge_dst spec e)
              end);
          (* progress: a quiescent circuit must not owe the spec an output *)
          if excited = 0 then begin
            let pending =
              List.filter
                (fun (s, _) -> Sg.non_input spec s)
                (Sg.excited_events spec m)
            in
            if pending <> [] then
              add_violation log
                (Missing_output
                   { pending = List.map (event_name spec) pending; spec_state = m })
          end
        end
      end
    done;
    let nodes = Array.of_list (List.rev !node_state) in
    if not !capped then begin
      (* divergence: a cycle of hidden-signal moves alone *)
      let adj = Array.make (Array.length nodes) [] in
      List.iter (fun (a, b) -> adj.(a) <- b :: adj.(a)) !silent;
      let color = Array.make (Array.length nodes) 0 in
      let found = ref None in
      let rec dfs v =
        if !found = None then begin
          color.(v) <- 1;
          List.iter
            (fun w ->
              if color.(w) = 1 then found := Some w
              else if color.(w) = 0 then dfs w)
            adj.(v);
          color.(v) <- 2
        end
      in
      Array.iteri (fun v _ -> if color.(v) = 0 then dfs v) nodes;
      (match !found with
      | Some v -> add_violation log (Divergence { spec_state = fst nodes.(v) })
      | None -> ())
    end;
    report log ~capped:!capped ~states:!n_nodes
  with Interface msg -> interface_mismatch msg

(* SG-level refinement: the implementation graph (typically the expanded
   graph, whose inserted state signals became real signals) must realise
   exactly the abstract specification once the signals the spec does not
   know are hidden.  The product walks the implementation's edges;
   spec-visible labels must be matched by a spec edge from the current
   spec state, hidden labels leave the spec state unchanged.  Codes of
   shared signals must agree in every reachable pair, and every spec
   edge must be matched somewhere. *)
let refines ?(max_states = 1_000_000) ~spec impl =
  let log = new_log spec in
  try
    (* spec signal id -> impl signal id, by name; every spec signal must
       survive into the implementation graph *)
    let ns = Sg.n_signals spec in
    let impl_of_spec =
      Array.init ns (fun s ->
          let n = Sg.signal_name spec s in
          match Sg.find_signal impl n with
          | id ->
            if Sg.non_input spec s <> Sg.non_input impl id then
              raise
                (Interface
                   (Printf.sprintf
                      "signal %s changed input/output role in the implementation"
                      n));
            id
          | exception Not_found ->
            raise
              (Interface
                 (Printf.sprintf "spec signal %s lost by the implementation" n)))
    in
    (* impl signal id -> spec signal id, None for inserted state signals *)
    let spec_of_impl = Array.make (Sg.n_signals impl) None in
    Array.iteri (fun s i -> spec_of_impl.(i) <- Some s) impl_of_spec;
    let codes_agree e m =
      let ok = ref true in
      for s = 0 to ns - 1 do
        if Sg.bit spec m s <> Sg.bit impl e impl_of_spec.(s) then ok := false
      done;
      !ok
    in
    let e0 = Sg.initial impl and m0 = Sg.initial spec in
    if not (codes_agree e0 m0) then
      raise (Interface "initial codes disagree on the shared signals");
    let visited : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
    let n_nodes = ref 0 in
    let queue = Queue.create () in
    let visit e m =
      if not (Hashtbl.mem visited (e, m)) then begin
        Hashtbl.add visited (e, m) ();
        incr n_nodes;
        Queue.add (e, m) queue
      end
    in
    let capped = ref false in
    visit e0 m0;
    while (not (Queue.is_empty queue)) && not !capped do
      if full log then Queue.clear queue
      else begin
        let e, m = Queue.pop queue in
        if !n_nodes > max_states then begin
          capped := true;
          add_violation log (Capped max_states)
        end
        else begin
          if not (codes_agree e m) then
            add_violation log
              (Interface_mismatch
                 (Printf.sprintf
                    "codes diverge on shared signals (impl state %d, spec state %d)"
                    e m));
          if Sg.out_degree impl e = 0 && Sg.out_degree spec m > 0 then
            add_violation log (Refinement_stuck { impl_state = e; spec_state = m });
          Sg.iter_succ impl e (fun ie ->
              log.walked <- log.walked + 1;
              let d = Sg.edge_dir impl ie in
              match spec_of_impl.(Sg.edge_signal impl ie) with
              | None ->
                (* inserted state signal: hidden *)
                visit (Sg.edge_dst impl ie) m
              | Some s ->
                (* the matching spec edges, newest first: the order
                   decides which product pair each violation names *)
                let l = Sg.label_code s d in
                let matching = ref [] in
                Sg.iter_succ spec m (fun se ->
                    if Sg.edge_label spec se = l then matching := se :: !matching);
                if !matching = [] then
                  add_violation log
                    (Illegal_output
                       {
                         signal = Sg.signal_name spec s;
                         rising = d = Sg.R;
                         spec_state = m;
                       })
                else
                  List.iter
                    (fun se ->
                      log.covered.(se) <- true;
                      visit (Sg.edge_dst impl ie) (Sg.edge_dst spec se))
                    !matching)
        end
      end
    done;
    report log ~capped:!capped ~states:!n_nodes
  with Interface msg -> interface_mismatch msg

let pp_violation ppf = function
  | Interface_mismatch s -> Format.fprintf ppf "interface mismatch: %s" s
  | Illegal_output { signal; rising; spec_state } ->
    Format.fprintf ppf "illegal output %s%c in spec state %d" signal
      (if rising then '+' else '-')
      spec_state
  | Output_hazard { disabled; by; spec_state } ->
    Format.fprintf ppf "hazard: %s loses excitation when %s fires (state %d)"
      disabled by spec_state
  | Missing_output { pending; spec_state } ->
    Format.fprintf ppf "circuit quiescent but spec awaits {%s} in state %d"
      (String.concat ", " pending)
      spec_state
  | Divergence { spec_state } ->
    Format.fprintf ppf "hidden state signals diverge around spec state %d"
      spec_state
  | Unrealized_edge { signal; rising; src } ->
    Format.fprintf ppf "spec transition %s%c from state %d never exercised"
      signal
      (if rising then '+' else '-')
      src
  | Refinement_stuck { impl_state; spec_state } ->
    Format.fprintf ppf
      "implementation stuck in state %d while spec state %d can move"
      impl_state spec_state
  | Capped n -> Format.fprintf ppf "exploration capped at %d product states" n

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>product: %d states, %d transitions; spec coverage %d/%d@,"
    r.stats.product_states r.stats.product_edges r.stats.spec_edges_covered
    r.stats.spec_edges_total;
  (match r.violations with
  | [] -> Format.fprintf ppf "conformance: ok@,"
  | vs ->
    List.iter (fun v -> Format.fprintf ppf "violation: %a@," pp_violation v) vs);
  Format.fprintf ppf "@]"
