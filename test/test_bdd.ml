(* Differential and property tests for the solver core: the
   struct-of-arrays ROBDD engine against a truth table and against the
   boxed reference engine (Bdd_ref), the CDCL solver against the
   chronological DPLL oracle, and the incremental WalkSAT against a
   verbatim copy of the historical re-scanning implementation. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------------- random formulas over 8 variables ---------------- *)

type form =
  | V of int
  | Neg of form
  | Conj of form * form
  | Disj of form * form
  | Exclusive of form * form
  | Implies of form * form

let rec eval_form code = function
  | V v -> (code lsr v) land 1 = 1
  | Neg f -> not (eval_form code f)
  | Conj (f, g) -> eval_form code f && eval_form code g
  | Disj (f, g) -> eval_form code f || eval_form code g
  | Exclusive (f, g) -> eval_form code f <> eval_form code g
  | Implies (f, g) -> (not (eval_form code f)) || eval_form code g

let rec form_to_string = function
  | V v -> Printf.sprintf "x%d" v
  | Neg f -> Printf.sprintf "!(%s)" (form_to_string f)
  | Conj (f, g) -> Printf.sprintf "(%s & %s)" (form_to_string f) (form_to_string g)
  | Disj (f, g) -> Printf.sprintf "(%s | %s)" (form_to_string f) (form_to_string g)
  | Exclusive (f, g) ->
    Printf.sprintf "(%s ^ %s)" (form_to_string f) (form_to_string g)
  | Implies (f, g) ->
    Printf.sprintf "(%s -> %s)" (form_to_string f) (form_to_string g)

let n_vars = 8

let gen_form =
  let open QCheck.Gen in
  let leaf = map (fun v -> V v) (int_range 0 (n_vars - 1)) in
  let rec go depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (2, map (fun f -> Neg f) (go (depth - 1)));
          (3, map2 (fun a b -> Conj (a, b)) (go (depth - 1)) (go (depth - 1)));
          (3, map2 (fun a b -> Disj (a, b)) (go (depth - 1)) (go (depth - 1)));
          (2, map2 (fun a b -> Exclusive (a, b)) (go (depth - 1)) (go (depth - 1)));
          (1, map2 (fun a b -> Implies (a, b)) (go (depth - 1)) (go (depth - 1)));
        ]
  in
  go 5

let arb_form = QCheck.make ~print:form_to_string gen_form

let rec build_new m = function
  | V v -> Bdd.var m v
  | Neg f -> Bdd.bnot m (build_new m f)
  | Conj (f, g) -> Bdd.band m (build_new m f) (build_new m g)
  | Disj (f, g) -> Bdd.bor m (build_new m f) (build_new m g)
  | Exclusive (f, g) -> Bdd.bxor m (build_new m f) (build_new m g)
  | Implies (f, g) -> Bdd.imp m (build_new m f) (build_new m g)

let rec build_ref m = function
  | V v -> Bdd_ref.var m v
  | Neg f -> Bdd_ref.not_ m (build_ref m f)
  | Conj (f, g) -> Bdd_ref.and_ m (build_ref m f) (build_ref m g)
  | Disj (f, g) -> Bdd_ref.or_ m (build_ref m f) (build_ref m g)
  | Exclusive (f, g) -> Bdd_ref.xor m (build_ref m f) (build_ref m g)
  | Implies (f, g) -> Bdd_ref.imp m (build_ref m f) (build_ref m g)

let brute_count f =
  let n = ref 0 in
  for code = 0 to (1 lsl n_vars) - 1 do
    if eval_form code f then incr n
  done;
  !n

(* BDD vs truth table: every one of the 256 assignments, through both
   entry points, plus the model count. *)
let prop_truth_table =
  QCheck.Test.make ~name:"BDD agrees with truth table (8 vars)" ~count:300
    arb_form (fun f ->
      let m = Bdd.manager () in
      let b = build_new m f in
      let ok = ref true in
      for code = 0 to (1 lsl n_vars) - 1 do
        let expected = eval_form code f in
        if Bdd.eval_bits m b code <> expected then ok := false;
        let a = Array.init n_vars (fun v -> (code lsr v) land 1 = 1) in
        if Bdd.eval m b a <> expected then ok := false
      done;
      !ok && Bdd.sat_count m ~n_vars b = float_of_int (brute_count f))

(* New engine vs boxed reference engine: canonical forms of the same
   function must have the same shape, count and witnesses — including
   after quantification and cofactoring. *)
let prop_vs_reference =
  QCheck.Test.make ~name:"SoA engine agrees with reference engine"
    ~count:(300 * Qseed.soak) arb_form (fun f ->
      let mn = Bdd.manager () and mr = Bdd_ref.manager () in
      let bn = build_new mn f and br = build_ref mr f in
      let agree_counts bn br =
        Bdd.size mn bn = Bdd_ref.size br
        && Bdd.sat_count mn ~n_vars bn = Bdd_ref.sat_count ~n_vars br
        && Bdd.is_false bn = Bdd_ref.is_false br
        && Bdd.is_true bn = Bdd_ref.is_true br
      in
      let witness_ok =
        match (Bdd.any_sat mn bn, Bdd_ref.any_sat br) with
        | None, None -> true
        | Some pn, Some pr ->
          (* both engines pick the all-quiet model: identical paths *)
          pn = pr && Bdd.eval_bits mn bn
                       (List.fold_left
                          (fun c (v, b) -> if b then c lor (1 lsl v) else c)
                          0 pn)
        | _ -> false
      in
      agree_counts bn br && witness_ok
      && agree_counts
           (Bdd.exists mn [ 0; 2; 4 ] bn)
           (Bdd_ref.exists mr [ 0; 2; 4 ] br)
      && agree_counts
           (Bdd.restrict mn bn ~var:1 ~value:true)
           (Bdd_ref.restrict mr br ~var:1 ~value:true))

(* A single-entry computed table (cache_bits:0) forces maximal cache
   thrashing; results must not depend on cache hits. *)
let prop_cache_size_one =
  QCheck.Test.make ~name:"single-entry computed table is sound" ~count:150
    arb_form (fun f ->
      let m = Bdd.manager ~cache_bits:0 () in
      let b = build_new m f in
      let ok = ref true in
      for code = 0 to (1 lsl n_vars) - 1 do
        if Bdd.eval_bits m b code <> eval_form code f then ok := false
      done;
      let st = Bdd.stats m in
      !ok
      && Bdd.sat_count m ~n_vars b = float_of_int (brute_count f)
      && st.Bdd.cache_hits <= st.Bdd.cache_lookups)

(* The fused relational product is the symbolic reachability engine's
   inner loop; it short-circuits quantified variables during the
   conjunction, so its equivalence to the compose-then-quantify spec
   [exists vars (band f g)] is exactly what the fusion must preserve —
   canonical nodes, so [Bdd.equal] is full functional equality.  Both
   a fixed cube (the engine's current-state pattern) and a random one. *)
let prop_and_exists =
  QCheck.Test.make ~name:"and_exists = exists . band"
    ~count:300
    (QCheck.triple arb_form arb_form (QCheck.make QCheck.Gen.(int_bound 255)))
    (fun (f, g, cube) ->
      let m = Bdd.manager () in
      let bf = build_new m f and bg = build_new m g in
      let vars =
        List.filter (fun v -> (cube lsr v) land 1 = 1) (List.init n_vars Fun.id)
      in
      Bdd.equal
        (Bdd.and_exists m vars bf bg)
        (Bdd.exists m vars (Bdd.band m bf bg))
      && Bdd.equal
           (Bdd.and_exists m [ 0; 2; 4; 6 ] bf bg)
           (Bdd.exists m [ 0; 2; 4; 6 ] (Bdd.band m bf bg)))

(* The legacy [xor] alias takes a different recursion (it materializes
   the complement, preserving the historical node-count profile) but
   must reach the same canonical node as [bxor]. *)
let prop_xor_alias =
  QCheck.Test.make ~name:"legacy xor alias equals bxor" ~count:100
    (QCheck.pair arb_form arb_form) (fun (f, g) ->
      let m = Bdd.manager () in
      let bf = build_new m f and bg = build_new m g in
      Bdd.equal (Bdd.xor m bf bg) (Bdd.bxor m bf bg))

(* Unique-table growth: thousands of distinct nodes force several
   rehashes past the initial capacity; hash-consing must survive them. *)
let test_rehash_growth () =
  let m = Bdd.manager () in
  let rand = Qseed.state () in
  let nv = 16 in
  let minterms =
    Array.init 200 (fun _ -> Random.State.int rand (1 lsl nv))
  in
  let cube code =
    Bdd.conj m
      (List.init nv (fun v ->
           if (code lsr v) land 1 = 1 then Bdd.var m v else Bdd.nvar m v))
  in
  let union =
    Array.fold_left (fun acc c -> Bdd.bor m acc (cube c)) Bdd.bdd_false minterms
  in
  check "grew past initial capacity" true (Bdd.n_nodes m > 1024);
  Array.iter
    (fun c -> check "minterm in union" true (Bdd.eval_bits m union c))
    minterms;
  let distinct = List.sort_uniq compare (Array.to_list minterms) in
  Alcotest.(check (float 0.0))
    "sat_count = distinct minterms"
    (float_of_int (List.length distinct))
    (Bdd.sat_count m ~n_vars:nv union);
  let st = Bdd.stats m in
  check "stats consistent" true
    (st.Bdd.nodes = Bdd.n_nodes m
    && st.Bdd.unique_hits <= st.Bdd.unique_lookups
    && st.Bdd.cache_hits <= st.Bdd.cache_lookups)

(* ---------------- CDCL vs chronological DPLL -------------------- *)

let random_cnf rand =
  let nv = 4 + Random.State.int rand 9 in
  let ncl = 3 + Random.State.int rand 48 in
  let f = Cnf.create () in
  ignore (Cnf.fresh_vars f nv);
  for _ = 1 to ncl do
    let len = 1 + Random.State.int rand 3 in
    Cnf.add_clause f
      (List.init len (fun _ ->
           let v = 1 + Random.State.int rand nv in
           if Random.State.bool rand then v else -v))
  done;
  f

let test_cdcl_vs_basic () =
  let rand = Qseed.state () in
  for i = 1 to 200 * Qseed.soak do
    let f = random_cnf rand in
    let r_cdcl, _ = Dpll.solve f in
    let r_basic, _ = Dpll_ref.solve f in
    match (r_cdcl, r_basic) with
    | Dpll.Sat m1, Dpll.Sat m2 ->
      check (Printf.sprintf "cnf %d: CDCL model satisfies" i) true
        (Cnf.eval f m1);
      check (Printf.sprintf "cnf %d: DPLL model satisfies" i) true
        (Cnf.eval f m2)
    | Dpll.Unsat, Dpll.Unsat -> ()
    | _ ->
      Alcotest.failf "cnf %d (seed %d): CDCL %a, DPLL %a" i Qseed.seed
        Dpll.pp_result r_cdcl Dpll.pp_result r_basic
  done

(* ---------------- WalkSAT vs historical implementation ----------- *)

(* Verbatim pre-incremental WalkSAT (break counts recomputed by
   scanning occurrence lists on every greedy step), kept as the oracle
   for the same-seed agreement property below.  Any divergence in flip
   trajectory, model or counters between this and lib/sat/walksat.ml
   is a bug in the incremental bookkeeping. *)
module Walksat_old = struct
  type stats = { flips : int; tries : int }

  let solve ?(seed = 0) ?(noise = 0.5) ?(init = `Random) ?max_flips
      ?(max_tries = 10) f =
    let rng = Random.State.make [| seed |] in
    let nv = Cnf.n_vars f in
    let clauses = Cnf.clauses f in
    let ncl = Array.length clauses in
    let max_flips =
      match max_flips with Some m -> m | None -> max 10_000 (100 * nv)
    in
    let occ_pos = Array.make (nv + 1) []
    and occ_neg = Array.make (nv + 1) [] in
    Array.iteri
      (fun ci cl ->
        Array.iter
          (fun l ->
            if l > 0 then occ_pos.(l) <- ci :: occ_pos.(l)
            else occ_neg.(-l) <- ci :: occ_neg.(-l))
          cl)
      clauses;
    let value = Array.make (nv + 1) false in
    let n_true = Array.make ncl 0 in
    let unsat = Array.make (max ncl 1) 0 in
    let unsat_pos = Array.make (max ncl 1) (-1) in
    let n_unsat = ref 0 in
    let lit_true l = if l > 0 then value.(l) else not value.(-l) in
    let mark_unsat ci =
      if unsat_pos.(ci) < 0 then begin
        unsat.(!n_unsat) <- ci;
        unsat_pos.(ci) <- !n_unsat;
        incr n_unsat
      end
    in
    let mark_sat ci =
      let p = unsat_pos.(ci) in
      if p >= 0 then begin
        decr n_unsat;
        let last = unsat.(!n_unsat) in
        unsat.(p) <- last;
        unsat_pos.(last) <- p;
        unsat_pos.(ci) <- -1
      end
    in
    let init_counts () =
      Array.fill unsat_pos 0 (Array.length unsat_pos) (-1);
      n_unsat := 0;
      Array.iteri
        (fun ci cl ->
          let k =
            Array.fold_left (fun a l -> if lit_true l then a + 1 else a) 0 cl
          in
          n_true.(ci) <- k;
          if k = 0 then mark_unsat ci)
        clauses
    in
    let flip v =
      value.(v) <- not value.(v);
      let now_true = if value.(v) then occ_pos.(v) else occ_neg.(v) in
      let now_false = if value.(v) then occ_neg.(v) else occ_pos.(v) in
      List.iter
        (fun ci ->
          n_true.(ci) <- n_true.(ci) + 1;
          if n_true.(ci) = 1 then mark_sat ci)
        now_true;
      List.iter
        (fun ci ->
          n_true.(ci) <- n_true.(ci) - 1;
          if n_true.(ci) = 0 then mark_unsat ci)
        now_false
    in
    let break_count v =
      let would_false = if value.(v) then occ_pos.(v) else occ_neg.(v) in
      List.fold_left
        (fun acc ci -> if n_true.(ci) = 1 then acc + 1 else acc)
        0 would_false
    in
    let total_flips = ref 0 in
    let result = ref None in
    let tries = ref 0 in
    (try
       if Cnf.has_empty_clause f then raise Exit;
       for _try = 1 to max_tries do
         incr tries;
         for v = 1 to nv do
           value.(v) <-
             (match init with
             | `False when !tries = 1 -> false
             | `False | `Random -> Random.State.bool rng)
         done;
         init_counts ();
         let fl = ref 0 in
         while !n_unsat > 0 && !fl < max_flips do
           incr fl;
           incr total_flips;
           let ci = unsat.(Random.State.int rng !n_unsat) in
           let cl = clauses.(ci) in
           let v =
             if Random.State.float rng 1.0 < noise then
               abs cl.(Random.State.int rng (Array.length cl))
             else begin
               let best = ref (abs cl.(0)) and best_b = ref max_int in
               Array.iter
                 (fun l ->
                   let b = break_count (abs l) in
                   if b < !best_b then begin
                     best_b := b;
                     best := abs l
                   end)
                 cl;
               !best
             end
           in
           flip v
         done;
         if !n_unsat = 0 then begin
           result := Some (Array.copy value);
           raise Exit
         end
       done
     with Exit -> ());
    (!result, { flips = !total_flips; tries = !tries })
end

let test_walksat_agreement () =
  let rand = Qseed.state () in
  for i = 1 to 60 do
    let f = random_cnf rand in
    List.iter
      (fun (seed, init) ->
        let m_new, st_new =
          Walksat.solve ~seed ~init ~max_flips:2_000 ~max_tries:3 f
        in
        let m_old, st_old =
          Walksat_old.solve ~seed ~init ~max_flips:2_000 ~max_tries:3 f
        in
        check (Printf.sprintf "cnf %d seed %d: same model" i seed) true
          (m_new = m_old);
        check_int
          (Printf.sprintf "cnf %d seed %d: same flips" i seed)
          st_old.Walksat_old.flips st_new.Walksat.flips;
        check_int
          (Printf.sprintf "cnf %d seed %d: same tries" i seed)
          st_old.Walksat_old.tries st_new.Walksat.tries;
        match m_new with
        | Some m -> check "model satisfies" true (Cnf.eval f m)
        | None -> ())
      [ (0, `Random); (1, `Random); (2, `False) ]
  done

(* ---------------- runner ---------------- *)

let () =
  Alcotest.run "bdd"
    [
      ( "engine",
        [
          Qseed.to_alcotest prop_truth_table;
          Qseed.to_alcotest prop_vs_reference;
          Qseed.to_alcotest prop_cache_size_one;
          Qseed.to_alcotest prop_xor_alias;
          Qseed.to_alcotest prop_and_exists;
          Alcotest.test_case "unique-table growth" `Quick test_rehash_growth;
        ] );
      ( "solvers",
        [
          Alcotest.test_case "CDCL vs DPLL on 200 fuzzed CNFs" `Quick
            test_cdcl_vs_basic;
          Alcotest.test_case "incremental WalkSAT = historical WalkSAT" `Quick
            test_walksat_agreement;
        ] );
    ]
