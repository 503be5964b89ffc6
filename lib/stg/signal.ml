type kind = Input | Output | Internal
type dir = Rise | Fall | Toggle
type event = { signal : int; dir : dir }

let non_input = function Input -> false | Output | Internal -> true
let equal_kind (a : kind) b = a = b

let dir_suffix = function Rise -> "+" | Fall -> "-" | Toggle -> "~"
let event_to_string names e = names.(e.signal) ^ dir_suffix e.dir
