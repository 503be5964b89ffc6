type t = int Atomic.t

let solver = Atomic.make 0
let reach = Atomic.make 0
let sim = Atomic.make 0
let expansion = Atomic.make 0
let cache_hit = Atomic.make 0
let cache_miss = Atomic.make 0
let cache_scan = Atomic.make 0
let implementability = Atomic.make 0
let minimize_visit = Atomic.make 0
let bump = Atomic.incr
let add c n = ignore (Atomic.fetch_and_add c n)
let get = Atomic.get
let reset c = Atomic.set c 0
