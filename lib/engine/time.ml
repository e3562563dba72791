type ns = int64

let zero = 0L

let ns n = Int64.of_int n
let us n = Int64.mul (Int64.of_int n) 1_000L
let ms n = Int64.mul (Int64.of_int n) 1_000_000L
let sec n = Int64.mul (Int64.of_int n) 1_000_000_000L

let of_float_us x = Int64.of_float (Float.round (x *. 1_000.))
let to_float_us t = Int64.to_float t /. 1_000.
let to_float_ms t = Int64.to_float t /. 1_000_000.
let to_float_s t = Int64.to_float t /. 1_000_000_000.

(* Primitives, not functions: see time.mli. *)
external ( + ) : ns -> ns -> ns = "%int64_add"
external ( - ) : ns -> ns -> ns = "%int64_sub"
let ( * ) t n = Int64.mul t (Int64.of_int n)
let ( / ) t n = Int64.div t (Int64.of_int n)
external ( < ) : ns -> ns -> bool = "%lessthan"
external ( <= ) : ns -> ns -> bool = "%lessequal"
external ( > ) : ns -> ns -> bool = "%greaterthan"
external ( >= ) : ns -> ns -> bool = "%greaterequal"

let min (a : ns) b = if a <= b then a else b
let max (a : ns) b = if a >= b then a else b

(* Frequencies of interest (1.3, 2.2 GHz) are exactly representable as small
   rationals over 10, so going through float on values far below 2^53 is
   exact enough: the round-trip error is below one cycle. *)
let cycles_of_ns ~ghz t = Int64.of_float (Int64.to_float t *. ghz)

let ns_of_cycles ~ghz c =
  Int64.of_float (Float.ceil (Int64.to_float c /. ghz))

let pp fmt t =
  let f = Int64.to_float t in
  let af = Float.abs f in
  if Stdlib.( >= ) af 1e9 then Format.fprintf fmt "%.3fs" (f /. 1e9)
  else if Stdlib.( >= ) af 1e6 then Format.fprintf fmt "%.3fms" (f /. 1e6)
  else if Stdlib.( >= ) af 1e3 then Format.fprintf fmt "%.3fus" (f /. 1e3)
  else Format.fprintf fmt "%Ldns" t
