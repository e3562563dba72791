(** A simulated shared-memory node: engine + CPUs + interrupt fabric.

    "CPU" means an individual hardware thread (hyperthread), as in the
    paper. Each CPU owns a TSC that started with a boot-time stagger and an
    APIC; the machine also carries the GPIO port used for external
    verification and the device-interrupt fabric. *)

open Hrt_engine

type cpu = {
  id : int;
  core : int;  (** physical core this hardware thread belongs to *)
  tsc : Tsc.t;
  apic : Apic.t;
  rng : Rng.t;  (** per-CPU stream for cost sampling *)
}

type t = {
  engine : Engine.t;
  platform : Platform.t;
  cpus : cpu array;
  gpio : Gpio.t;
  irq : Irq.t;
  rng : Rng.t;
}

val create : ?seed:int64 -> ?num_cpus:int -> Platform.t -> t
(** Build a machine. [num_cpus] overrides the platform CPU count (for
    scaled-down experiments); it must be at least 1. CPU 0's TSC starts at
    boot time zero (it is the wall-clock reference); other CPUs start with a
    uniform stagger in [0, boot_skew_ns). *)

val num_cpus : t -> int
val cpu : t -> int -> cpu

val sample : t -> cpu -> Platform.cost -> Time.ns
(** Sample a platform cost using the CPU's RNG stream. *)
