(** External (device) interrupts with steering and partitioning.

    External interrupts can be steered to any CPU (paper Section 3.5); the
    default configuration routes everything to CPU 0, partitioning the
    machine into an interrupt-laden partition (CPU 0) and an interrupt-free
    partition (everything else). The handler behaviour itself belongs to the
    kernel, which installs a dispatch hook; this module only models arrival
    processes and routing. *)

open Hrt_engine

type t

type device

val create : engine:Engine.t -> apic_of:(int -> Apic.t) -> t
(** [apic_of cpu] resolves the APIC that receives a vector routed to
    [cpu]. *)

val set_dispatch : t -> (cpu:int -> device -> Engine.t -> unit) -> unit
(** Install the kernel's interrupt entry point. Called once per delivered
    interrupt, on the target CPU's APIC path (so PPR gating has already been
    applied). *)

val add_device :
  t ->
  name:string ->
  prio:int ->
  mean_interval:Time.ns ->
  handler_cost:Platform.cost ->
  device
(** Declare a device raising interrupts with exponential inter-arrival
    times. The device is initially steered to CPU 0 and idle until
    {!start}. *)

val steer : t -> device -> cpus:int list -> unit
(** Route the device to the given CPUs (round-robin across them). Raises
    [Invalid_argument] on an empty list. *)

val start : t -> device -> unit
(** Begin generating interrupts. *)

val stop : t -> device -> unit

val handler_cost : device -> Platform.cost
val delivered : device -> int
(** Interrupts delivered (handed to an APIC) so far. *)
