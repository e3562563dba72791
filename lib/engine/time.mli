(** Simulated wall-clock time.

    All time in the simulator is wall-clock time in nanoseconds stored in
    64-bit integers, exactly as the paper's scheduler does (Section 3.3):
    "Time is measured throughout in units of nanoseconds stored in 64 bit
    integers." Cycle counts are converted through a per-platform frequency. *)

type ns = int64
(** A point in (or duration of) simulated time, in nanoseconds. *)

val zero : ns

val ns : int -> ns
(** [ns n] is [n] nanoseconds. *)

val us : int -> ns
(** [us n] is [n] microseconds. *)

val ms : int -> ns
(** [ms n] is [n] milliseconds. *)

val sec : int -> ns
(** [sec n] is [n] seconds. *)

val of_float_us : float -> ns
(** [of_float_us x] is [x] microseconds rounded to the nearest nanosecond. *)

val to_float_us : ns -> float
val to_float_ms : ns -> float
val to_float_s : ns -> float

(* The six operators below are [external] primitives, not functions, on
   purpose: dune's default (dev) profile compiles every library with
   [-opaque], which stops cross-module inlining, so a [val ( + )] becomes an
   out-of-line call through [caml_apply2] that boxes its [int64] result on
   every [Time.(a + b)] on the engine's per-event path. A primitive named in
   a [.cmi] is expanded at the call site whatever the build flags, and
   because [ns] is a manifest [int64] the comparisons specialise to unboxed
   [int64] compares. Do not turn them back into [val]s: test_time.ml checks
   that a loop of them allocates nothing. *)

external ( + ) : ns -> ns -> ns = "%int64_add"
external ( - ) : ns -> ns -> ns = "%int64_sub"
val ( * ) : ns -> int -> ns
val ( / ) : ns -> int -> ns
external ( < ) : ns -> ns -> bool = "%lessthan"
external ( <= ) : ns -> ns -> bool = "%lessequal"
external ( > ) : ns -> ns -> bool = "%greaterthan"
external ( >= ) : ns -> ns -> bool = "%greaterequal"

val min : ns -> ns -> ns
val max : ns -> ns -> ns

val cycles_of_ns : ghz:float -> ns -> int64
(** [cycles_of_ns ~ghz t] is the number of processor cycles elapsed in [t]
    nanoseconds on a clock of [ghz] GHz, rounded down. *)

val ns_of_cycles : ghz:float -> int64 -> ns
(** Inverse of {!cycles_of_ns}, rounded up so that programming a timer from a
    cycle count is conservative (fires no later than requested, up to 1 ns
    of floating-point slack in the frequency). *)

val pp : Format.formatter -> ns -> unit
(** Human-friendly rendering, e.g. ["12.5us"], ["3.2ms"]. *)
