(* The splitmix64 state lives unboxed in an 8-byte buffer: updating a
   [mutable int64] field boxes a fresh Int64 on every draw, while the
   64-bit byte primitives read and write the raw word in place. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden = 0x9E3779B97F4A7C15L

(* Draws are the per-event hot path (every sampled cost goes through
   [gaussian]); construction is cold. *)
[@@@hrt.hot]

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@hrt.cold] create seed =
  let t = Bytes.create 8 in
  set64 t 0 seed;
  t

let[@inline] next t =
  let s = Int64.add (get64 t 0) golden in
  set64 t 0 s;
  mix s

let[@hrt.cold] split t = create (next t)

(* 53 random bits scaled into [0,1). *)
let[@inline] float t =
  Int64.to_float (Int64.shift_right_logical (next t) 11)
  *. (1. /. 9007199254740992.)

(* Uniform in [0, span) from 63 random bits, without modulo bias: draws
   landing in the incomplete final copy of [0, span) at the top of the
   2^63 range are rejected and redrawn. [Int64.min_int] read as an
   unsigned quantity is exactly 2^63, so [unsigned_rem min_int span] is
   2^63 mod span, and [min_int - rem] is the (positive, representable)
   rejection threshold 2^63 - rem. Accepted draws return the same value
   the old biased code did, so existing seeded streams are preserved
   except on the (astronomically rare, span/2^63) rejected draw. *)
let bounded t span =
  let rem = Int64.unsigned_rem Int64.min_int span in
  let limit = Int64.sub Int64.min_int rem in
  let bits = ref (Int64.shift_right_logical (next t) 1) in
  if not (Int64.equal rem 0L) then
    while Int64.compare !bits limit >= 0 do
      bits := Int64.shift_right_logical (next t) 1
    done;
  Int64.rem !bits span

let int t n =
  if n <= 0 then invalid_arg "Rng.int";
  Int64.to_int (bounded t (Int64.of_int n))

let range_ns t lo hi =
  if not Time.(lo < hi) then invalid_arg "Rng.range_ns";
  Int64.add lo (bounded t (Int64.sub hi lo))

(* A uniform in (1e-300, 1): redraws the (practically never seen) draws
   too close to zero for [log]. A local float ref, not a closure, so the
   loop allocates nothing. *)
let[@inline] positive_float t =
  let u = ref (float t) in
  while !u <= 1e-300 do
    u := float t
  done;
  !u

let gaussian t ~mu ~sigma =
  let u1 = positive_float t in
  let u2 = float t in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let exponential t ~mean = -.mean *. log (positive_float t)
