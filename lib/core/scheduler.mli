(** The global scheduler: system construction and public API.

    "The global scheduler is the distributed system comprising the local
    schedulers and their interactions" (paper Section 3). This facade
    builds a simulated machine, boots one local scheduler per CPU,
    calibrates the cycle counters, and exposes thread, task, and device
    management. *)

open Hrt_engine
open Hrt_hw

type t

val create :
  ?seed:int64 ->
  ?num_cpus:int ->
  ?config:Config.t ->
  ?calibrate:bool ->
  ?obs:Hrt_obs.Sink.t ->
  Platform.t ->
  t
(** Boot a system. [calibrate] (default true) runs the boot-time TSC
    synchronization and installs the residual clock skews into the local
    schedulers. [obs] is the observability sink shared by every local
    scheduler; it defaults to {!Hrt_obs.Sink.null}, so instrumentation
    costs one dead branch per site unless the caller passes an enabled
    sink (the harness threads one through [Hrt_harness.Exp.Ctx]). There is
    no process-wide ambient sink: a system is fully described by its
    arguments, which is what lets independent systems run on parallel
    domains. *)

val machine : t -> Machine.t
val engine : t -> Engine.t
val config : t -> Config.t
val platform : t -> Platform.t
val num_cpus : t -> int
val sched : t -> int -> Local_sched.t
val calibration : t -> Sync_cal.result option

val obs : t -> Hrt_obs.Sink.t
(** The observability sink this system reports through. *)

val fresh_id : t -> int
(** A small integer unique within this system, in allocation order.
    Used by groups/barriers/elections to tag their trace events: keeping
    the counter per system (rather than process-wide) makes event ids a
    deterministic function of the system's own history, so traces are
    reproducible even when many systems run concurrently on different
    domains. *)

val spawn :
  t ->
  ?name:string ->
  ?cpu:int ->
  ?bound:bool ->
  ?prio:int ->
  ?crit:Constraints.criticality ->
  Thread.body ->
  Thread.t
(** Create an aperiodic thread (priority [prio], default 0) on the given
    CPU (default 0) and enqueue it. [crit] (default [Mid]) is the thread's
    criticality for graceful degradation: under overload, lower-criticality
    threads are shed first (DESIGN §8). Raises [Failure] when the
    compile-time thread limit is exhausted. *)

val wake : t -> Thread.t -> unit
(** Wake a blocked thread from outside any thread context. *)

val rephase : t -> Thread.t -> delta:Time.ns -> unit
(** Shift a real-time thread's arrival schedule (phase correction,
    Section 4.4). *)

val reanchor : t -> Thread.t -> first_arrival:Time.ns -> unit
(** Re-anchor a real-time thread's arrival schedule at an absolute time. *)

val submit_task :
  t -> cpu:int -> ?declared:Time.ns -> duration:Time.ns -> (unit -> unit) -> unit
(** Queue a lightweight task on a CPU. Tasks with a [declared] size may be
    run directly by the local scheduler; others are processed by a helper
    thread created on first use (paper Section 3.1). *)

val admission_ops :
  t -> Constraints.t -> on_result:(Admission.verdict -> unit) -> Thread.op list
(** The op sequence a thread issues to (re-)negotiate its constraints:
    a [Compute] charging the local admission-control cost followed by
    [Set_constraints]. Admission runs in the requesting thread's context,
    so its cost never perturbs already-admitted threads (Section 3.2). *)

val run : ?until:Time.ns -> t -> unit
(** Run the simulation; progress accounting is synchronized on return, and
    (when the sink is enabled) engine counters and per-CPU accounting
    (idle time, invocations, arrivals, misses, kicks, steals) are
    snapshot into the metrics registry as gauges. *)

val sync_accounting : t -> unit
(** Charge all running threads' progress up to the current instant (done
    automatically by {!run}). *)

val set_dispatch_hook : t -> (int -> Thread.t -> Time.ns -> unit) option -> unit

val add_device :
  t ->
  name:string ->
  ?prio:int ->
  ?threaded:bool ->
  mean_interval:Time.ns ->
  handler_cost:Platform.cost ->
  unit ->
  Irq.device
(** Declare an interrupting device (steered to CPU 0 — the interrupt-laden
    partition — until re-steered). With [threaded] (paper Section 3.5's
    second mechanism), the interrupt entry only acknowledges and wakes a
    per-CPU {e interrupt thread} that runs the handler body at aperiodic
    priority — so hard real-time threads are never delayed by handler
    time, only by the bounded acknowledge cost. *)

val steer_device : t -> Irq.device -> cpus:int list -> unit
val start_device : t -> Irq.device -> unit

val total_misses : t -> int
val total_arrivals : t -> int

val threads_alive : t -> int
(** Threads currently holding a pool slot. *)

val iter_threads : t -> (Thread.t -> unit) -> unit
(** Visit every thread ever spawned through this scheduler (including
    exited ones), in spawn order. Fault plans use this to target
    task-level faults (WCET overrun, release jitter) by thread. *)

val find_thread : t -> string -> Thread.t option
(** Look up a spawned thread by name (newest first on duplicates). *)
