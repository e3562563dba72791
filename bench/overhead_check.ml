(* Observability overhead gates.

   The observability layer must be zero-cost when disabled: every
   instrumentation site guards event construction behind a single
   [Sink.enabled] branch on the null sink. This check times a fixed
   scheduler workload with the sink disabled as two interleaved series,
   and fails if they disagree by more than the tolerance — i.e. if the
   "disabled" path has any measurable, non-noise cost. The traced
   enabled-sink cost is reported informationally (it is allowed to cost
   something; that is what you pay for a trace).

   Metrics alone must stay cheap: a fine-grain BSP run with the sink
   [--metrics-out] builds ([Sink.create ~trace:false ()]) fails the check
   when it costs more than [metrics_budget] over the same run on
   [Sink.null].

   Run via bench/check.sh or `dune exec bench/overhead_check.exe`. *)

open Hrt_engine
open Hrt_core

let tolerance = 0.02 (* 2% *)
let metrics_budget = 0.15 (* 15% *)

let workload ~obs () =
  let config = { Config.default with Config.admission_control = false } in
  let sys =
    Scheduler.create ~num_cpus:4 ~config ~calibrate:false ~obs
      Hrt_hw.Platform.phi
  in
  for cpu = 1 to 3 do
    ignore
      (Hrt_harness.Exp.periodic_thread sys ~cpu ~period:(Time.us 100)
         ~slice:(Time.us 60) ())
  done;
  Scheduler.run ~until:(Time.ms 10) sys

(* A fine-grain BSP run: per-CPU scheduler passes, arrivals, dispatches
   and interrupts every few simulated microseconds, so nearly every
   engine event reaches the sink. *)
let bsp_workload ~obs () =
  let params =
    { (Hrt_bsp.Bsp.fine_grain ~cpus:24 ~barrier:false) with Hrt_bsp.Bsp.iters = 2_000 }
  in
  let mode =
    Hrt_bsp.Bsp.Rt
      { period = Time.us 100; slice = Time.us 90; phase_correction = true }
  in
  ignore (Hrt_bsp.Bsp.run ~policy:Config.Edf ~obs params mode)

(* Seconds of [reps] back-to-back runs of [f]. *)
let time_reps ~reps f =
  let t0 = Sys.time () in
  for _ = 1 to reps do
    f ()
  done;
  Sys.time () -. t0

(* Min-of-N over samples of [reps] back-to-back runs each: the minimum is
   the least-noise estimate of the true cost. *)
let measure ?(samples = 9) ~reps f =
  let best = ref infinity in
  for _ = 1 to samples do
    best := Float.min !best (time_reps ~reps f)
  done;
  !best

(* [measure] for two workloads at once: they alternate sample by sample,
   the order flipping every sample, so a slow stretch of the host hits
   both series alike. *)
let measure_pair ?(samples = 9) ~reps f g =
  let a = ref infinity and b = ref infinity in
  let sample_a () = a := Float.min !a (time_reps ~reps f) in
  let sample_b () = b := Float.min !b (time_reps ~reps g) in
  for s = 1 to samples do
    if s land 1 = 1 then begin
      sample_a ();
      sample_b ()
    end
    else begin
      sample_b ();
      sample_a ()
    end
  done;
  (!a, !b)

(* The metrics-only BSP run against the same run on [Sink.null]. *)
let metrics_within_budget () =
  let null, on =
    measure_pair ~samples:11 ~reps:1
      (bsp_workload ~obs:Hrt_obs.Sink.null)
      (fun () -> bsp_workload ~obs:(Hrt_obs.Sink.create ~trace:false ()) ())
  in
  let over = (on -. null) /. null in
  Printf.printf "metrics:  %.4fs vs %.4fs null (+%.1f%%, budget %.0f%%)\n" on
    null (100. *. over) (100. *. metrics_budget);
  over <= metrics_budget

let () =
  let reps = 20 in
  (* Warm up allocators and code paths. *)
  workload ~obs:Hrt_obs.Sink.null ();
  let disabled () =
    measure_pair ~reps
      (workload ~obs:Hrt_obs.Sink.null)
      (workload ~obs:Hrt_obs.Sink.null)
  in
  let disabled_a, disabled_b = disabled () in
  let enabled =
    measure ~reps (fun () -> workload ~obs:(Hrt_obs.Sink.create ()) ())
  in
  let base = Float.min disabled_a disabled_b in
  let delta = Float.abs (disabled_a -. disabled_b) /. base in
  Printf.printf "disabled: %.4fs / %.4fs (delta %.2f%%)\n" disabled_a
    disabled_b (100. *. delta);
  Printf.printf "enabled:  %.4fs (+%.1f%% over disabled; informational)\n"
    enabled
    (100. *. ((enabled -. base) /. base));
  if delta > tolerance then begin
    (* One retry: a background process can poison a series. *)
    let a, b = disabled () in
    let delta = Float.abs (a -. b) /. Float.min a b in
    Printf.printf "retry: %.4fs / %.4fs (delta %.2f%%)\n" a b (100. *. delta);
    if delta > tolerance then begin
      Printf.printf
        "FAIL: disabled-observability runs differ by more than %.0f%%\n"
        (100. *. tolerance);
      exit 1
    end
  end;
  bsp_workload ~obs:Hrt_obs.Sink.null ();
  (* One retry, as above. *)
  if not (metrics_within_budget () || metrics_within_budget ()) then begin
    Printf.printf "FAIL: the metrics-only sink costs more than %.0f%% over null\n"
      (100. *. metrics_budget);
    exit 1
  end;
  print_endline "overhead check: OK"
