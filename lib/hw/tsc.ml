open Hrt_engine

type t = { ghz : float; mutable offset : int64 }

let create ~ghz ~start_skew =
  (* Counting began at [start_skew], so the counter lags an ideal time-zero
     counter by cycles(start_skew). *)
  { ghz; offset = Int64.neg (Time.cycles_of_ns ~ghz start_skew) }

let ideal t now = Time.cycles_of_ns ~ghz:t.ghz now

let read t ~now = Int64.add (ideal t now) t.offset

let write t ~now v = t.offset <- Int64.sub v (ideal t now)

let adjust t delta = t.offset <- Int64.add t.offset delta

let offset_cycles t = t.offset

let ghz t = t.ghz

let reading_of_ns t ns = Time.cycles_of_ns ~ghz:t.ghz ns
