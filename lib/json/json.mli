(** The one JSON layer behind every machine-readable report
    ([mpsyn-lint/1], [mpsyn-plan/1], [mpsyn-hazard/1], [mpsyn-prefix/1],
    [mpsyn-bench/1]): a value type, a compact printer and a parser.

    Numbers keep their printed text, so a writer decides its own
    precision ([%d], [%.4f], ...) and a parsed document prints back byte
    for byte. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** the number's JSON text, e.g. ["42"] or ["0.1250"] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** fields in printing order *)

val int : int -> t

(** [fixed digits f] is [f] printed with [digits] decimals ([%.*f]). *)
val fixed : int -> float -> t

val str_list : string list -> t

(** [opt f o] is [f x] for [Some x] and [Null] for [None]. *)
val opt : ('a -> t) -> 'a option -> t

(** [to_string v] prints [v] on one line with no spaces.  Strings escape
    ['"'], ['\\'], newline and tab by name and the other control
    characters as [\u00XX]; every other byte passes through. *)
val to_string : t -> string

exception Parse_error of string

(** [of_string s] parses one JSON value surrounded by optional
    whitespace.  Raises {!Parse_error} on malformed input, raw control
    characters inside strings, and trailing bytes.  [to_string
    (of_string s) = s] for every [s] that {!to_string} printed. *)
val of_string : string -> t

exception Type_error of string

(** [member key v] is the field [key] of the object [v].  Raises
    {!Type_error} when [v] is not an object or has no such field. *)
val member : string -> t -> t

(** Accessors; each raises {!Type_error} on any other constructor (and
    [to_int] on a number with a fraction or exponent). *)

val to_int : t -> int
val to_float : t -> float
val to_bool : t -> bool
val to_str : t -> string
val to_list : t -> t list
