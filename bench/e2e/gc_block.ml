(* The statistics block the OCaml runtime prints on stderr at exit when
   OCAMLRUNPARAM contains v=0x400: one "name: number" line per counter.
   Reading it gives a child's peak heap and allocation without any
   change to the program being measured. *)

type t = {
  allocated_words : float;
  minor_collections : float;
  major_collections : float;
  top_heap_words : float;
}

(* Every "name: number" line of [text]; other lines (the program's own
   stderr) are skipped. *)
let fields text =
  List.filter_map
    (fun line ->
      match String.index_opt line ':' with
      | None -> None
      | Some i -> (
        let key = String.trim (String.sub line 0 i) in
        let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        match float_of_string_opt v with
        | Some f when key <> "" && not (String.contains key ' ') -> Some (key, f)
        | _ -> None))
    (String.split_on_char '\n' text)

(* [None] when any of the four counters is missing: the child died
   before the runtime's exit hook ran. *)
let parse text =
  let kv = fields text in
  let get k = List.assoc_opt k kv in
  match
    ( get "allocated_words",
      get "minor_collections",
      get "major_collections",
      get "top_heap_words" )
  with
  | Some allocated_words, Some minor_collections, Some major_collections, Some top_heap_words ->
    Some { allocated_words; minor_collections; major_collections; top_heap_words }
  | _ -> None
