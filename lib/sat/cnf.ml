type lit = int

type t = {
  mutable n_vars : int;
  mutable rev_clauses : lit array list;
  mutable n_clauses : int;
  mutable empty_clause : bool;
  seen : (lit array, unit) Hashtbl.t;
      (* canonical (sorted, deduplicated) clauses already present *)
}

let create () =
  {
    n_vars = 0;
    rev_clauses = [];
    n_clauses = 0;
    empty_clause = false;
    seen = Hashtbl.create 64;
  }

let fresh_var f =
  f.n_vars <- f.n_vars + 1;
  f.n_vars

let fresh_vars f k =
  if k <= 0 then invalid_arg "Cnf.fresh_vars";
  let first = f.n_vars + 1 in
  f.n_vars <- f.n_vars + k;
  first

let add_clause f lits =
  List.iter
    (fun l ->
      if l = 0 || abs l > f.n_vars then
        invalid_arg (Printf.sprintf "Cnf.add_clause: bad literal %d" l))
    lits;
  let lits = List.sort_uniq Int.compare lits in
  let tautology =
    let rec among = function
      | [] -> false
      | l :: rest -> List.mem (-l) rest || among rest
    in
    among lits
  in
  if not tautology then begin
    let clause = Array.of_list lits in
    (* the canonical form makes duplicates structural: drop them *)
    if not (Hashtbl.mem f.seen clause) then begin
      Hashtbl.add f.seen clause ();
      if lits = [] then f.empty_clause <- true;
      f.rev_clauses <- clause :: f.rev_clauses;
      f.n_clauses <- f.n_clauses + 1
    end
  end

let add_exactly_one f lits =
  add_clause f lits;
  let rec pairs = function
    | [] -> ()
    | l :: rest ->
      List.iter (fun l' -> add_clause f [ -l; -l' ]) rest;
      pairs rest
  in
  pairs lits

let n_vars f = f.n_vars
let n_clauses f = f.n_clauses
let has_empty_clause f = f.empty_clause
let clauses f = Array.of_list (List.rev f.rev_clauses)

let eval f assignment =
  List.for_all
    (fun clause ->
      Array.exists
        (fun l -> if l > 0 then assignment.(l) else not assignment.(-l))
        clause)
    f.rev_clauses

let to_dimacs f =
  let buf = Buffer.create (16 * f.n_clauses) in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" f.n_vars f.n_clauses);
  List.iter
    (fun clause ->
      Array.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) clause;
      Buffer.add_string buf "0\n")
    (List.rev f.rev_clauses);
  Buffer.contents buf

let of_dimacs s =
  let f = create () in
  let lines = String.split_on_char '\n' s in
  let pending = ref [] in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' then ()
      else if line.[0] = 'p' then begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "p"; "cnf"; nv; _nc ] -> (
          match int_of_string_opt nv with
          | Some nv when nv >= 0 -> ignore (if nv > 0 then fresh_vars f nv else 0)
          | _ -> invalid_arg "Cnf.of_dimacs: bad header")
        | _ -> invalid_arg "Cnf.of_dimacs: bad header"
      end
      else
        String.split_on_char ' ' line
        |> List.filter (( <> ) "")
        |> List.iter (fun tok ->
               match int_of_string_opt tok with
               | None -> invalid_arg "Cnf.of_dimacs: bad literal"
               | Some 0 ->
                 add_clause f (List.rev !pending);
                 pending := []
               | Some l ->
                 if abs l > f.n_vars then
                   invalid_arg "Cnf.of_dimacs: literal exceeds declared vars";
                 pending := l :: !pending))
    lines;
  if !pending <> [] then add_clause f (List.rev !pending);
  f
