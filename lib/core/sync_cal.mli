(** Boot-time cycle-counter calibration (paper Section 3.4, Fig 3).

    At boot the local schedulers run a barrier-like protocol to estimate
    each CPU's TSC phase relative to CPU 0 (the wall-clock reference) and
    write predicted values into the counters to bring them as close to
    identical as possible. The measurement itself uses instruction
    sequences whose granularity exceeds a cycle, so a per-CPU residual
    error remains; the paper measures ~1000 cycles of residual agreement
    across 256 CPUs. *)

open Hrt_engine
open Hrt_hw

type result = {
  residual_cycles : float array;
      (** post-calibration offset of each CPU vs CPU 0, cycles (signed) *)
  residual_ns : Time.ns array;  (** same, in nanoseconds (signed) *)
}

val calibrate : Machine.t -> result
(** Measure and write-correct every CPU's TSC. CPU 0 is the reference and
    keeps residual 0. Deterministic per machine seed. *)
