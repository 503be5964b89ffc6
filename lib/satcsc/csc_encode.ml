type t = { cnf : Cnf.t; n_states : int; n_new : int; base_vars : int }

let var_a enc ~state ~k = (2 * ((state * enc.n_new) + k)) + 1
let var_b enc ~state ~k = (2 * ((state * enc.n_new) + k)) + 2

(* Literals forcing value [v] on (state, k): positive conjunction as a list
   of literals that must all hold. *)
let value_lits enc ~state ~k v =
  let a = var_a enc ~state ~k and b = var_b enc ~state ~k in
  let ba, bb = Fourval.to_bits v in
  [ (if ba then a else -a); (if bb then b else -b) ]

let all_values = [ Fourval.V0; Fourval.V1; Fourval.Up; Fourval.Dn ]

let encode ?resolve ?(mode = `Strict) sg ~n_new =
  let n = Sg.n_states sg in
  let cnf = Cnf.create () in
  let enc = { cnf; n_states = n; n_new; base_vars = 2 * n * n_new } in
  if n_new > 0 then ignore (Cnf.fresh_vars cnf enc.base_vars);
  (* 1. Edge consistency: forbid the illegal value pairs. *)
  for e = 0 to Sg.n_edges sg - 1 do
    for k = 0 to n_new - 1 do
        List.iter
          (fun v ->
            List.iter
              (fun v' ->
                if not (Fourval.edge_ok v v') then
                  Cnf.add_clause cnf
                    (List.map Int.neg
                       (value_lits enc ~state:(Sg.edge_src sg e) ~k v
                       @ value_lits enc ~state:(Sg.edge_dst sg e) ~k v')))
              all_values)
          all_values
    done
  done;
  (* Strict distinguishers for conflict pairs: d => (state=V0 /\
     state'=V1) — stable values only, which survive expansion (paper
     §2.1 / Vanbekbergen's strict 0-1 rule). *)
  let strict_distinguisher m m' =
    List.concat_map
      (fun k ->
        List.map
          (fun (v, v') ->
            let d = Cnf.fresh_var cnf in
            List.iter
              (fun l -> Cnf.add_clause cnf [ -d; l ])
              (value_lits enc ~state:m ~k v @ value_lits enc ~state:m' ~k v');
            d)
          [ (Fourval.V0, Fourval.V1); (Fourval.V1, Fourval.V0) ])
      (List.init n_new Fun.id)
  in
  (* Binary distinguishers for non-conflict pairs: the binary value of a
     state signal is exactly its [b] bit (00=V0, 01=V1, 10=Up, 11=Dn),
     so "the pair keeps different codes" is just b ≠ b'. *)
  let binary_distinguisher m m' =
    List.concat_map
      (fun k ->
        let b = var_b enc ~state:m ~k and b' = var_b enc ~state:m' ~k in
        List.map
          (fun (lb, lb') ->
            let d = Cnf.fresh_var cnf in
            Cnf.add_clause cnf [ -d; lb ];
            Cnf.add_clause cnf [ -d; lb' ];
            d)
          [ (b, -b'); (-b, b') ])
      (List.init n_new Fun.id)
  in
  (* 2 & 3. Same-code classes. *)
  let must_resolve =
    match resolve with Some ps -> ps | None -> Csc.conflict_pairs sg
  in
  let conflicts = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace conflicts p ()) must_resolve;
  List.iter
    (fun members ->
      let rec pairs = function
        | [] -> ()
        | m :: rest ->
          List.iter
            (fun m' ->
              if Hashtbl.mem conflicts (m, m') then
                Cnf.add_clause cnf (strict_distinguisher m m')
              else begin
                (* no new conflicts: either the pair keeps different
                   binary codes, or every new signal treats both states
                   identically (same value, hence same excitation) *)
                let eq = Cnf.fresh_var cnf in
                for k = 0 to n_new - 1 do
                  let am = var_a enc ~state:m ~k and am' = var_a enc ~state:m' ~k in
                  let bm = var_b enc ~state:m ~k and bm' = var_b enc ~state:m' ~k in
                  Cnf.add_clause cnf [ -eq; -am; am' ];
                  Cnf.add_clause cnf [ -eq; am; -am' ];
                  Cnf.add_clause cnf [ -eq; -bm; bm' ];
                  Cnf.add_clause cnf [ -eq; bm; -bm' ]
                done;
                let ds =
                  match mode with
                  | `Strict -> strict_distinguisher m m'
                  | `Loose -> binary_distinguisher m m'
                in
                Cnf.add_clause cnf (eq :: ds)
              end)
            rest;
          pairs rest
      in
      pairs members)
    (Csc.code_classes sg);
  enc

let decode enc model =
  Array.init enc.n_new (fun k ->
      Array.init enc.n_states (fun state ->
          Fourval.of_bits
            ~a:model.(var_a enc ~state ~k)
            ~b:model.(var_b enc ~state ~k)))

let apply sg enc model ~names =
  let values = decode enc model in
  let sg = ref sg in
  Array.iteri
    (fun k vals -> sg := Sg.add_extra !sg ~name:names.(k) ~values:vals)
    values;
  !sg
