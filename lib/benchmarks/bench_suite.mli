(** The benchmark registry: the 23 Table-1 STGs of [data/*.g], compiled
    in at build time and paired with the numbers published in Table 1 of
    the paper, for paper-vs-measured reporting.

    The files are reconstructions.  The 1994 originals (SIS tapes, HP
    benchmarks) are not distributable, so each net is rebuilt as a live,
    1-safe, consistent STG with the same name, the same signal count
    where Table 1 publishes it, a state count of the same order, and
    genuine CSC conflicts, so the whole pipeline runs the way the paper
    ran it (DESIGN.md §2).  Two fragments recur:
    - the four-phase handshake [r+ a+ r- a-], whose four codes are
      distinct, so it adds no conflict by itself;
    - the pulse [r+ a+ a- r-], whose state after [a-] repeats the code of
      the state after [r+] with different excitation, so each pulse is a
      CSC conflict source.

    alex-nonfc is the one net that is not free choice: its shared-resource
    place [p] has two consumer transitions, [x+] and [y+], each also
    waiting on a private request input, which is the Non-Free-Choice case
    Table 1 reports for Lavagno's method. *)

(** What Table 1 reports for one method on one benchmark. *)
type paper_method =
  | Solved of { states : int option; signals : int; area : int; time : float }
  | Abort of float option
      (** "SAT Backtrack Limit" rows; the time at abort when printed *)
  | Error  (** "Internal State Error" / "Non-Free-Choice STG" rows *)

type paper_row = {
  initial_states : int;
  initial_signals : int;
  ours : paper_method;  (** the paper's modular method *)
  vanbekbergen : paper_method;
  lavagno : paper_method;
}

type entry = {
  name : string;
  build : unit -> Stg.t;
  paper : paper_row;
}

(** All 23 benchmarks, largest first (Table 1 order). *)
val all : entry list

(** [find name] returns the entry or raises [Not_found]. *)
val find : string -> entry

(** [names] in Table 1 order. *)
val names : string list
