type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | List of t list
  | Obj of (string * t) list

let int n = Num (string_of_int n)
let fixed digits f = Num (Printf.sprintf "%.*f" digits f)
let str_list l = List (List.map (fun s -> Str s) l)
let opt f = function Some x -> f x | None -> Null

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num s -> Buffer.add_string b s
  | Str s -> Printf.bprintf b "\"%a\"" escape s
  | List l -> items b '[' ']' (write b) l
  | Obj l ->
    items b '{' '}' (fun (k, v) -> Printf.bprintf b "%a:%a" write (Str k) write v) l

and items : 'a. Buffer.t -> char -> char -> ('a -> unit) -> 'a list -> unit =
 fun b first last item l ->
  Buffer.add_char b first;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      item x)
    l;
  Buffer.add_char b last

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

exception Parse_error of string

(* Recursive descent over [s]; [peek] reads NUL past the end, which no
   rule accepts. *)
let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail what =
    raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos))
  in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    incr pos;
    s.[!pos - 1]
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected '%c'" c) in
  let rec skip_ws () =
    if String.contains " \t\n\r" (peek ()) then begin
      incr pos;
      skip_ws ()
    end
  in
  let word w v =
    let l = String.length w in
    if !pos + l > n || String.sub s !pos l <> w then fail "invalid literal";
    pos := !pos + l;
    v
  in
  let hex4 () =
    let digit () =
      match next () with
      | '0' .. '9' as c -> Char.code c - 48
      | 'a' .. 'f' as c -> Char.code c - 87
      | 'A' .. 'F' as c -> Char.code c - 55
      | _ -> fail "bad \\u escape"
    in
    List.fold_left (fun u _ -> (u lsl 4) lor digit ()) 0 [ 1; 2; 3; 4 ]
  in
  (* a high surrogate takes the low one that must follow it *)
  let unicode () =
    let u = hex4 () in
    if u < 0xD800 || u >= 0xE000 then Uchar.of_int u
    else if u >= 0xDC00 then fail "lone low surrogate"
    else begin
      expect '\\';
      expect 'u';
      let lo = hex4 () in
      if lo < 0xDC00 || lo >= 0xE000 then fail "bad surrogate pair";
      Uchar.of_int (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
    end
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' -> Buffer.add_utf_8_uchar b (unicode ())
        | _ -> fail "bad escape");
        go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digits () =
      let d = !pos in
      while peek () >= '0' && peek () <= '9' do
        incr pos
      done;
      if !pos = d then fail "expected a digit"
    in
    if peek () = '-' then incr pos;
    (* no leading zeros: "0" stands alone *)
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then begin
      incr pos;
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    Num (String.sub s start (!pos - start))
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      Obj
        (seq '}' (fun () ->
             skip_ws ();
             let k = string () in
             skip_ws ();
             expect ':';
             (k, value ())))
    | '[' ->
      incr pos;
      List (seq ']' value)
    | '"' -> Str (string ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ when !pos >= n -> fail "unexpected end of input"
    | _ -> fail "unexpected character"
  (* the items of an array or object, after its opening bracket *)
  and seq : 'a. char -> (unit -> 'a) -> 'a list =
   fun close item ->
    skip_ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match next () with
        | ',' -> go acc
        | c when c = close -> List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing bytes";
  v

exception Type_error of string

let type_error what = raise (Type_error ("expected " ^ what))

let member key = function
  | Obj l -> (
    match List.assoc_opt key l with
    | Some v -> v
    | None -> raise (Type_error (Printf.sprintf "missing field %S" key)))
  | _ -> type_error "an object"

let num conv what = function
  | Num s -> ( match conv s with Some x -> x | None -> type_error what)
  | _ -> type_error what

let to_int = num int_of_string_opt "an integer"
let to_float = num float_of_string_opt "a number"
let to_bool = function Bool b -> b | _ -> type_error "a boolean"
let to_str = function Str s -> s | _ -> type_error "a string"
let to_list = function List l -> l | _ -> type_error "an array"
