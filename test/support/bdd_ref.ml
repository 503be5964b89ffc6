(* Reference ROBDD engine: the original boxed-node implementation, kept
   verbatim as the differential-testing oracle for the struct-of-arrays
   engine in [Bdd] and as the "before" side of the E12 solver
   microbenchmarks.  One manager = one heap-allocated record per node,
   hash-consed through a functorial [Hashtbl], with an unbounded [ite]
   memo.  The only change from the historical version is the unique/memo
   hash: the avalanche triple hash shared with [Bdd] replaces the
   polymorphic structural hash, whose word-folding collides on dense
   small-int triples. *)

type node = False | True | N of { uid : int; var : int; lo : node; hi : node }

let uid = function False -> 0 | True -> 1 | N { uid; _ } -> uid

(* Same avalanche triple hash as [Bdd.hash3]. *)
let hash3 (a, b, c) =
  let x = (a * 0x9E3779B1) lxor (b * 0x85EBCA6B) lxor (c * 0xC2B2AE35) in
  let x = x lxor (x lsr 16) in
  let x = x * 0x45D9F3B in
  x lxor (x lsr 16)

module Triple = struct
  type t = int * int * int

  let equal (a : t) b = a = b
  let hash t = hash3 t land max_int
end

module Unique = Hashtbl.Make (Triple)
module Memo = Hashtbl.Make (Triple)

type manager = {
  unique : node Unique.t;
  ite_memo : node Memo.t;
  mutable next_uid : int;
}

let manager () =
  { unique = Unique.create 4096; ite_memo = Memo.create 4096; next_uid = 2 }

let bdd_true = True
let bdd_false = False
let of_bool b = if b then True else False

let mk mgr var lo hi =
  if lo == hi then lo
  else begin
    let key = (var, uid lo, uid hi) in
    match Unique.find_opt mgr.unique key with
    | Some n -> n
    | None ->
      let n = N { uid = mgr.next_uid; var; lo; hi } in
      mgr.next_uid <- mgr.next_uid + 1;
      Unique.add mgr.unique key n;
      n
  end

let var mgr v =
  if v < 0 then invalid_arg "Bdd_ref.var: negative variable";
  mk mgr v False True

let nvar mgr v =
  if v < 0 then invalid_arg "Bdd_ref.nvar: negative variable";
  mk mgr v True False

let top_var = function False | True -> max_int | N { var; _ } -> var

let cofactors v = function
  | (False | True) as n -> (n, n)
  | N { var; lo; hi; _ } -> if var = v then (lo, hi) else assert false

let split v n =
  match n with
  | False | True -> (n, n)
  | N { var; _ } when var > v -> (n, n)
  | N _ -> cofactors v n

let rec ite mgr f g h =
  match (f, g, h) with
  | True, _, _ -> g
  | False, _, _ -> h
  | _, True, False -> f
  | _ when g == h -> g
  | _ ->
    let key = (uid f, uid g, uid h) in
    (match Memo.find_opt mgr.ite_memo key with
    | Some r -> r
    | None ->
      let v = min (top_var f) (min (top_var g) (top_var h)) in
      let f0, f1 = split v f and g0, g1 = split v g and h0, h1 = split v h in
      let lo = ite mgr f0 g0 h0 and hi = ite mgr f1 g1 h1 in
      let r = mk mgr v lo hi in
      Memo.add mgr.ite_memo key r;
      r)

let not_ mgr f = ite mgr f False True
let and_ mgr f g = ite mgr f g False
let or_ mgr f g = ite mgr f True g
let xor mgr f g = ite mgr f (not_ mgr g) g
let imp mgr f g = ite mgr f g True
let conj mgr ns = List.fold_left (and_ mgr) True ns
let disj mgr ns = List.fold_left (or_ mgr) False ns

let rec restrict mgr n ~var:v ~value =
  match n with
  | False | True -> n
  | N { var; lo; hi; _ } ->
    if var > v then n
    else if var = v then if value then hi else lo
    else
      mk mgr var
        (restrict mgr lo ~var:v ~value)
        (restrict mgr hi ~var:v ~value)

let is_true n = n == True
let is_false n = n == False
let equal a b = a == b

let size n =
  let seen = Hashtbl.create 64 in
  let rec go = function
    | False | True -> ()
    | N { uid; lo; hi; _ } ->
      if not (Hashtbl.mem seen uid) then begin
        Hashtbl.add seen uid ();
        go lo;
        go hi
      end
  in
  go n;
  Hashtbl.length seen

let n_nodes mgr = mgr.next_uid - 2

let any_sat n =
  let rec go acc = function
    | True -> Some (List.rev acc)
    | False -> None
    | N { var; lo; hi; _ } -> (
      match go ((var, false) :: acc) lo with
      | Some path -> Some path
      | None -> go ((var, true) :: acc) hi)
  in
  go [] n

let sat_count ~n_vars n =
  let memo = Hashtbl.create 64 in
  (* models of the sub-bdd over variables >= v *)
  let rec go v n =
    if v >= n_vars then if is_true n then 1.0 else 0.0
    else
      match n with
      | False -> 0.0
      | True -> 2.0 ** float_of_int (n_vars - v)
      | N { uid; var; lo; hi } ->
        if var > v then 2.0 *. go (v + 1) n
        else begin
          match Hashtbl.find_opt memo uid with
          | Some c -> c
          | None ->
            let c = go (v + 1) lo +. go (v + 1) hi in
            Hashtbl.add memo uid c;
            c
        end
  in
  go 0 n

let rec eval n assignment =
  match n with
  | False -> false
  | True -> true
  | N { var; lo; hi; _ } ->
    let v = var < Array.length assignment && assignment.(var) in
    eval (if v then hi else lo) assignment

let rec eval_bits n code =
  match n with
  | False -> false
  | True -> true
  | N { var; lo; hi; _ } ->
    eval_bits
      (if var < Sys.int_size - 1 && code land (1 lsl var) <> 0 then hi else lo)
      code
