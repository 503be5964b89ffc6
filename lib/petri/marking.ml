type t = int array

let of_array counts =
  Array.iter
    (fun c ->
      if c < 0 then invalid_arg "Marking.of_array: negative token count")
    counts;
  Array.copy counts

let to_array m = Array.copy m
let size = Array.length
let tokens m p = m.(p)
let empty n = Array.make n 0

let set m p k =
  if k < 0 then invalid_arg "Marking.set: negative token count";
  let m' = Array.copy m in
  m'.(p) <- k;
  m'

let add m p k =
  let v = m.(p) + k in
  if v < 0 then invalid_arg "Marking.add: negative token count";
  let m' = Array.copy m in
  m'.(p) <- v;
  m'

let is_safe m = Array.for_all (fun c -> c <= 1) m
let total m = Array.fold_left ( + ) 0 m

let marked_places m =
  let acc = ref [] in
  for p = Array.length m - 1 downto 0 do
    if m.(p) > 0 then acc := p :: !acc
  done;
  !acc

let compare = Stdlib.compare

let equal a b =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  &&
  let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
  go 0

(* FNV-1a folded directly over the counts: no intermediate allocation
   (the previous implementation built a list per call), masked to stay
   nonnegative for Hashtbl. *)
let hash m =
  let h = ref 0x811c9dc5 in
  for i = 0 to Array.length m - 1 do
    h := (!h lxor m.(i)) * 0x01000193
  done;
  !h land max_int

(* Injective string encoding, the interning key of [Reach.explore].
   The common case — a 1-safe marking of a modest net — packs to one
   bit per place behind a 3-byte header (tag + place count), so table
   probes compare and hash a short flat string instead of walking an
   int array.  Anything else (counts > 1, or huge nets) falls back to
   8 bytes per place under a distinct tag; both encodings determine
   the place count and every token count exactly, so
   [pack a = pack b] iff [equal a b]. *)
let pack m =
  let n = Array.length m in
  if n < 0x10000 && is_safe m then begin
    let b = Bytes.make (3 + ((n + 7) lsr 3)) '\000' in
    Bytes.set b 0 '\001';
    Bytes.set b 1 (Char.chr (n land 0xff));
    Bytes.set b 2 (Char.chr (n lsr 8));
    for p = 0 to n - 1 do
      if m.(p) > 0 then begin
        let i = 3 + (p lsr 3) in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lor (1 lsl (p land 7))))
      end
    done;
    Bytes.unsafe_to_string b
  end
  else begin
    let b = Bytes.create (1 + (8 * n)) in
    Bytes.set b 0 '\000';
    for p = 0 to n - 1 do
      Bytes.set_int64_be b (1 + (8 * p)) (Int64.of_int m.(p))
    done;
    Bytes.unsafe_to_string b
  end

let pp_named names ppf m =
  Format.fprintf ppf "{";
  let first = ref true in
  Array.iteri
    (fun p c ->
      if c > 0 then begin
        if not !first then Format.fprintf ppf " ";
        first := false;
        if c = 1 then Format.fprintf ppf "%s" names.(p)
        else Format.fprintf ppf "%s:%d" names.(p) c
      end)
    m;
  Format.fprintf ppf "}"
