(* Shared randomness control for the property and fuzz tests.

   A pinned default keeps `dune runtest` deterministic from run to run;
   QCHECK_SEED overrides it, so a failure reported with its seed can be
   replayed without editing code.  The seed is announced on stderr the
   first time any randomized test asks for it — on failure, dune shows
   the captured output, so the seed is always part of a failure report. *)

let seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None | Some "" -> 20260806
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n -> n
    | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ s))

(* The soak factor: each engine-agreement property (a library engine
   against its reference in this library, or against brute force)
   multiplies its iteration count by it.  The committed 1 is the CI
   smoke; raise it by hand, to 20 say, for a long soak run. *)
let soak = 1

let announced = ref false

let announce () =
  if not !announced then begin
    announced := true;
    Printf.eprintf "qcheck seed: %d (override with QCHECK_SEED=<n>)\n%!" seed
  end

let state () =
  announce ();
  Random.State.make [| seed |]

let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(state ()) t
