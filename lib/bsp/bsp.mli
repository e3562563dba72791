(** The fine-grain BSP microbenchmark (paper Section 6.1).

    Emulates iterative computation on a discrete domain (a vector of
    doubles), parameterized by:

    - [cpus] (P): worker CPUs, one thread per CPU (workers occupy CPUs
      1..P; CPU 0 is the interrupt-laden partition);
    - [ne] (NE): domain elements local to each CPU;
    - [nc] (NC): computations per element per iteration;
    - [nw] (NW): remote writes per iteration, ring pattern — CPU i writes
      into elements owned by CPU ((i+1) mod P);
    - [iters] (N): iterations;
    - [barrier]: whether the optional per-iteration barrier runs.

    Under {!mode.Aperiodic} the benchmark runs exactly like a conventional
    non-real-time system (and needs the barrier for correctness); under
    {!mode.Rt} all workers are admitted as a hard real-time group with a
    common (period, slice) constraint, which throttles them to
    slice/period of the CPU (Figs 13/14) and keeps them in lock-step so
    the barrier can be discarded (Figs 15/16). *)

open Hrt_engine
open Hrt_hw
open Hrt_core

type params = {
  cpus : int;
  ne : int;
  nc : int;
  nw : int;
  iters : int;
  barrier : bool;
}

val fine_grain : cpus:int -> barrier:bool -> params
(** The paper's finest granularity: tiny per-iteration work. *)

val coarse_grain : cpus:int -> barrier:bool -> params
(** The paper's coarsest granularity. *)

type mode =
  | Aperiodic
  | Rt of { period : Time.ns; slice : Time.ns; phase_correction : bool }

type result = {
  exec_time : Time.ns;  (** last worker's finish minus first worker's start *)
  start_time : Time.ns;
  end_time : Time.ns;
  iterations_done : int;  (** summed over workers; P*N on success *)
  misses : int;
  checksum : float;  (** domain checksum, for correctness comparisons *)
  admitted : bool;  (** group admission verdict (always true for Aperiodic) *)
}

val work_per_iteration : Platform.t -> params -> Time.ns
(** Mean compute time of one iteration of one worker (NE*NC element
    computations + NW remote writes), before scheduling effects. *)

val update_step :
  float array ->
  ne:int ->
  nw:int ->
  my_base:int ->
  neighbour_base:int ->
  phase:int ->
  unit
(** One worker's update stage on the shared domain: element
    [my_base + j], for [j] below [min ne 64], becomes
    [x *. 0.5 +. float_of_int ((iter + j) mod 7)], then [nw] remote writes
    add [1.0] each to element [neighbour_base + (w mod ne)], [w] counting
    from 0. [phase] is [iter mod 7], in [0, 6]. Computed with wrapping
    counters rather than divisions; exposed so tests can check it against
    the formula. *)

val run :
  ?seed:int64 ->
  ?platform:Platform.t ->
  ?until:Time.ns ->
  ?policy:Config.policy ->
  ?obs:Hrt_obs.Sink.t ->
  params ->
  mode ->
  result
(** Build a fresh system and execute the benchmark to completion (or until
    the [until] safety horizon, default 100 s simulated). [policy] selects
    the scheduling discipline for admission and dispatch (default
    {!Config.Edf}). [obs] is the observability sink for the system
    (default {!Hrt_obs.Sink.null}); the run is fully described by its
    arguments, so concurrent runs on different domains are safe. Raises
    [Invalid_argument] if [cpus] or [ne] is below 1, or [nc], [nw] or
    [iters] is negative. *)
