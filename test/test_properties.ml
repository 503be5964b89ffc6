(* Cross-module laws: properties that tie the substrates together.
   Each of these is an invariant the synthesis flow silently relies on;
   they are stated here once, over randomized inputs, so a regression in
   any one module trips a law rather than a distant integration test. *)


let gen_mixed =
  QCheck.Gen.(
    let* stages = int_range 1 2 in
    let* branches = int_range 1 2 in
    return (stages, branches))

let mixed_stg (stages, branches) = Bench_gen.mixed ~stages ~branches
let mixed_sg p = Sg.of_stg (mixed_stg p)

(* --- Quotient laws ------------------------------------------------- *)

(* cover is total, surjective, and code-compatible: the projected code of
   a state equals the code of its cover class *)
let prop_quotient_cover_law =
  QCheck.Test.make ~name:"quotient cover is code-compatible" ~count:20
    (QCheck.make gen_mixed) (fun p ->
      let sg = mixed_sg p in
      (* hide the acknowledge signals of the first stage *)
      let keep s =
        not (String.length (Sg.signal_name sg s) > 0
            && (Sg.signal_name sg s).[0] = 'a')
      in
      match Sg_ref.quotient sg ~keep_signal:keep ~keep_extra:(fun _ -> true) with
      | None -> false
      | Some (q, cover) ->
        let kept =
          List.filter keep (List.init (Sg.n_signals sg) Fun.id)
        in
        let project c =
          List.fold_left
            (fun (acc, i) s ->
              ((if c land (1 lsl s) <> 0 then acc lor (1 lsl i) else acc), i + 1))
            (0, 0) kept
          |> fst
        in
        let onto = Array.make (Sg.n_states q) false in
        let ok = ref true in
        Array.iteri
          (fun m c ->
            onto.(c) <- true;
            if Sg.code q c <> project (Sg.code sg m) then ok := false)
          cover;
        !ok && Array.for_all Fun.id onto)

(* quotient with everything kept is the identity up to renumbering *)
let prop_quotient_identity =
  QCheck.Test.make ~name:"quotient keeping everything is identity" ~count:20
    (QCheck.make gen_mixed) (fun p ->
      let sg = mixed_sg p in
      match
        Sg_ref.quotient sg ~keep_signal:(fun _ -> true) ~keep_extra:(fun _ -> true)
      with
      | None -> false
      | Some (q, cover) ->
        Sg.n_states q = Sg.n_states sg
        && Sg.n_edges q = Sg.n_edges sg
        && Array.for_all (fun c -> c >= 0 && c < Sg.n_states q) cover)

(* --- Synthesis laws ------------------------------------------------ *)

(* the expanded result of a synthesis run is a fixpoint: synthesizing it
   again inserts nothing *)
let prop_synthesis_fixpoint =
  QCheck.Test.make ~name:"synthesis of a resolved graph is a fixpoint"
    ~count:10 (QCheck.make gen_mixed) (fun p ->
      let r = Mpart.synthesize (mixed_stg p) in
      let r2 = Mpart.synthesize_sg r.Mpart.expanded in
      Sg.n_states r2.Mpart.expanded = Sg.n_states r.Mpart.expanded
      && Sg.n_signals r2.Mpart.expanded = Sg.n_signals r.Mpart.expanded)

(* modular and direct agree on *whether* conflicts exist and both reach
   CSC; the modular method never uses fewer signals than the direct
   method's lower bound *)
let prop_modular_vs_direct =
  QCheck.Test.make ~name:"modular and direct both reach CSC" ~count:8
    (QCheck.make gen_mixed) (fun p ->
      let sg () = mixed_sg p in
      let r = Mpart.synthesize_sg (sg ()) in
      match
        (Csc_direct.solve ~backtrack_limit:200_000 ~time_limit:5.0 (sg ()))
          .Csc_direct.outcome
      with
      | Csc_direct.Solved d ->
        Csc.csc_satisfied r.Mpart.final
        && Csc.csc_satisfied d
        && Sg.n_extras r.Mpart.final >= Sg.n_extras d - 1
        (* modular may exceed the optimum; it should never beat the
           direct count by more than the direct method's own slack *)
      | Csc_direct.Gave_up _ -> Csc.csc_satisfied r.Mpart.final)

(* every function the flow derives is prime, irredundant and correct *)
let prop_functions_prime_irredundant =
  QCheck.Test.make ~name:"derived covers are prime and irredundant"
    ~count:10 (QCheck.make gen_mixed) (fun p ->
      let r = Mpart.synthesize (mixed_stg p) in
      List.for_all
        (fun (f : Derive.func) ->
          let width = List.length f.Derive.support in
          Espresso.verify ~onset:f.Derive.onset ~offset:f.Derive.offset
            f.Derive.cover
          && List.for_all
               (Espresso.is_prime ~width ~offset:f.Derive.offset)
               f.Derive.cover.Cover.cubes
          && (f.Derive.onset = []
             || Espresso.is_irredundant ~onset:f.Derive.onset f.Derive.cover))
        r.Mpart.functions)

(* the C-element decomposition agrees with the monolithic implementation
   on every reachable state: S=1 implies next=1, R=1 implies next=0 *)
let prop_celement_consistent_with_derive =
  QCheck.Test.make ~name:"set/reset networks agree with next-state covers"
    ~count:8 (QCheck.make gen_mixed) (fun p ->
      let r = Mpart.synthesize (mixed_stg p) in
      let ex = r.Mpart.expanded in
      let cs = Celement.decompose_all ex in
      Celement.verify ex cs = []
      && List.for_all
           (fun (c : Celement.t) ->
             let ok = ref true in
             for m = 0 to Sg.n_states ex - 1 do
               let pr = Support.project ~vars:c.Celement.support (Sg.code ex m) in
               let next = Sg.implied_value ex m c.Celement.signal in
               if Cover.eval c.Celement.set_cover pr && not next then ok := false;
               if Cover.eval c.Celement.reset_cover pr && next then ok := false
             done;
             !ok)
           cs)

(* --- Round trips ---------------------------------------------------- *)

let prop_gformat_roundtrip_generated =
  QCheck.Test.make ~name:".g round trip preserves generated families"
    ~count:12 (QCheck.make gen_mixed) (fun p ->
      let stg = mixed_stg p in
      let stg' = Gformat.parse_string (Gformat.to_string stg) in
      Reach.n_states (Reach.explore (Stg.net stg))
      = Reach.n_states (Reach.explore (Stg.net stg'))
      && Stg.n_signals stg = Stg.n_signals stg')

(* mirroring twice is the identity on kinds; parallel composition state
   space is the product *)
let prop_compose_laws =
  QCheck.Test.make ~name:"mirror involution; parallel is product" ~count:10
    (QCheck.make gen_mixed) (fun p ->
      let stg = mixed_stg p in
      let mm = Stg_compose.mirror (Stg_compose.mirror stg) in
      let kinds_equal =
        List.for_all
          (fun s -> Stg.kind mm s = Stg.kind stg s)
          (List.init (Stg.n_signals stg) Fun.id)
      in
      let a = Stg_compose.prefix stg "a_" and b = Stg_compose.prefix stg "b_" in
      let par = Stg_compose.parallel a b in
      let n g = Reach.n_states (Reach.explore (Stg.net g)) in
      kinds_equal && n par = n stg * n stg)

(* region minimization never breaks CSC on a resolved graph and never
   grows the excitation *)
let prop_region_minimize_safe =
  QCheck.Test.make ~name:"region minimization preserves resolved CSC"
    ~count:10 (QCheck.make gen_mixed) (fun p ->
      let r = Mpart.synthesize (mixed_stg p) in
      let final = r.Mpart.final in
      let again = Region_minimize.minimize final in
      let excited g =
        Array.fold_left
          (fun acc (x : Sg.extra) ->
            acc
            + Array.fold_left
                (fun a v -> if Fourval.excited v then a + 1 else a)
                0 x.Sg.values)
          0 (Sg.extras g)
      in
      Csc.csc_satisfied again && excited again <= excited final)

let () =
  Alcotest.run "properties"
    [
      ( "laws",
        [
          Qseed.to_alcotest prop_quotient_cover_law;
          Qseed.to_alcotest prop_quotient_identity;
          Qseed.to_alcotest prop_synthesis_fixpoint;
          Qseed.to_alcotest prop_modular_vs_direct;
          Qseed.to_alcotest prop_functions_prime_irredundant;
          Qseed.to_alcotest prop_celement_consistent_with_derive;
          Qseed.to_alcotest prop_gformat_roundtrip_generated;
          Qseed.to_alcotest prop_compose_laws;
          Qseed.to_alcotest prop_region_minimize_safe;
        ] );
    ]
