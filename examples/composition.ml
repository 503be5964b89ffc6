(* Building specifications from fragments.

   Run with:  dune exec examples/composition.exe

   Two handshake controllers are prefixed, composed in parallel, and the
   composite is synthesized like any other STG.  The mirror of the
   composite is its environment's specification — synthesizing both and
   cross-checking signal roles is the standard closed-system sanity
   check.  Place invariants certify structural boundedness before any
   state-space exploration. *)

let fragment name =
  Stg_builder.(
    compile ~name ~inputs:[ "req" ] ~outputs:[ "ack" ]
      (seq [ plus "req"; plus "ack"; minus "ack"; minus "req" ]))

let () =
  let left = Stg_compose.prefix (fragment "cell") "l_" in
  let right = Stg_compose.prefix (fragment "cell") "r_" in
  let both = Stg_compose.parallel ~name:"twocell" left right in
  Format.printf "composite: %a@." Stg.pp both;

  (* structural boundedness certificate before exploring anything *)
  let invs = Invariants.p_invariants (Stg.net both) in
  Format.printf "place invariants (%d):@." (List.length invs);
  List.iter
    (fun i -> Format.printf "  %a@." (Invariants.pp (Stg.net both)) i)
    invs;
  Format.printf "structurally bounded: %b@.@."
    (Invariants.covered (Stg.net both) invs);

  (* synthesize the composite *)
  let r = Mpart.synthesize both in
  assert (Mpart.verify r = None);
  Format.printf "synthesis: %d -> %d states, %d -> %d signals, %d literals@."
    (Mpart.initial_states r) (Mpart.final_states r) (Mpart.initial_signals r)
    (Mpart.final_signals r) (Mpart.area_literals r);
  List.iter (fun f -> Format.printf "  %a@." Derive.pp_func f) r.Mpart.functions;

  (* the environment's view: inputs and outputs swap *)
  let env = Stg_compose.mirror both in
  Format.printf "@.mirror (%s): now %d inputs / %d outputs@." (Stg.name env)
    (List.length (Stg.inputs env))
    (List.length (Stg.non_inputs env));
  let re = Mpart.synthesize env in
  assert (Mpart.verify re = None);
  Format.printf "environment synthesizes to %d literals@."
    (Mpart.area_literals re)
