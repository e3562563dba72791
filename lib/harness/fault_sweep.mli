(** Fault-intensity sweep: graceful degradation under injected faults.

    Boots a mixed-criticality workload (one high-criticality thread with
    ample slack, two heavy low-criticality threads, all on CPU 1) and
    sweeps a fault plan's intensity for EDF and RM, with degradation on
    and off. The headline result: with degradation on, high-criticality
    misses stay at zero across the whole intensity range (the lows are
    shed), while with it off EDF's overload behaviour lets overdue
    low-criticality threads starve the high one. *)

open Hrt_engine
open Hrt_core

type outcome = {
  hi_misses : int;
  lo_misses : int;
  hi_arrivals : int;
  lo_arrivals : int;
  sheds : int;
  recovers : int;
  boundary : int;  (** shed boundary at end of run *)
}

val run_demo :
  ?sink:Hrt_obs.Sink.t ->
  seed:int64 ->
  policy:Config.policy ->
  degrade:bool ->
  fault:Hrt_fault.Fault.Plan.t option ->
  horizon:Time.ns ->
  unit ->
  outcome
(** One run of the demo workload (the CLI's [run --inject] default
    scenario). *)

val intensities : float list
(** The sweep's intensity grid (0 = no fault). *)

type point = {
  policy : Config.policy;
  intensity : float;
  degrade : bool;
  out : outcome;
}

val points :
  ?ctx:Exp.Ctx.t -> ?plan_name:string -> unit -> point list
(** The full (policy x intensity x degrade) grid, fanned across
    [ctx.jobs] domains. [plan_name] defaults to ["smi-storm"]. *)

val table : title:string -> point list -> Hrt_stats.Table.t

val run : ?ctx:Exp.Ctx.t -> unit -> Hrt_stats.Table.t list
(** The registry entry point. *)
