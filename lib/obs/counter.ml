type t = int Atomic.t

let solver = Atomic.make 0
let reach = Atomic.make 0
let symbolic = Atomic.make 0
let sim = Atomic.make 0
let cache_hit = Atomic.make 0
let cache_miss = Atomic.make 0
let bump = Atomic.incr
let get = Atomic.get
let reset c = Atomic.set c 0
