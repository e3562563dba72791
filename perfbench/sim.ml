(* The two simulator workloads.

   [repro] is the paper reproduction users run ([hrt_sim all]): every
   Registry entry at quick scale, jobs=1, observability off. Its rendered
   tables are deterministic, so their MD5 is checked against a committed
   digest.

   [bsp-obs] is one fine-grain BSP run with an enabled metrics sink
   (what [--metrics-out] builds): 24 worker CPUs, 100 us period, 90 us
   slice, phase correction, EDF, Phi. The per-event observability path
   does most of its work here and none in [repro]. *)

open Hrt_engine
open Hrt_harness
module Bsp = Hrt_bsp.Bsp
module Sink = Hrt_obs.Sink
module Metrics = Hrt_obs.Metrics

(* ---- repro ---- *)

let repro_ctx () =
  Exp.Ctx.make ~scale:Exp.Quick ~jobs:1 ~sink:Sink.null ()

(* One pass over every entry: the MD5 of all rendered tables and, per
   entry, its seconds (Registry.time_run) and those seconds scaled to the
   reference host speed. With [calibrate], the calibration loop runs
   before each entry and after the last; without, scaled = raw. *)
let repro_pass ?spans ?(calibrate = false) ctx =
  let b = Buffer.create 65536 in
  let cal = ref (if calibrate then Calib.measure () else Calib.reference_s) in
  let per_entry =
    List.map
      (fun (e : Registry.entry) ->
        let tables, secs =
          Span.maybe spans ("repro." ^ e.name) (fun () -> Registry.time_run ~ctx e)
        in
        let before = !cal in
        if calibrate then cal := Calib.measure ();
        Buffer.add_string b e.name;
        Buffer.add_char b '\n';
        List.iter (fun t -> Buffer.add_string b (Hrt_stats.Table.render t)) tables;
        (e.name, secs, Calib.scale ~before ~after:!cal secs))
      Registry.all
  in
  (Digest.to_hex (Digest.string (Buffer.contents b)), per_entry)

let repro ~seconds =
  let ctx = repro_ctx () in
  Util.ready ();
  Calib.emit ();
  Util.repeat_for ~seconds ~min_units:1 (fun () ->
    let digest, per_entry = repro_pass ~calibrate:true ctx in
    Json.emit "unit"
      [
        ("wall_s", Json.Num (List.fold_left (fun acc (_, s, _) -> acc +. s) 0. per_entry));
        ("entries", Json.Obj (List.map (fun (name, _, scaled) -> (name, Json.Num scaled)) per_entry));
        ("digest", Json.Str digest);
        ("vm_hwm_kb", Json.Int (Util.vm_hwm_kb ()));
      ])

(* ---- bsp-obs ---- *)

let bsp_iters = 20_000
let bsp_cpus = 24

let bsp_params = { (Bsp.fine_grain ~cpus:bsp_cpus ~barrier:false) with Bsp.iters = bsp_iters }

let bsp_mode =
  Bsp.Rt { period = Time.us 100; slice = Time.us 90; phase_correction = true }

let bsp_run ~seed ~obs =
  Bsp.run ~seed ~policy:Hrt_core.Config.Edf ~obs bsp_params bsp_mode

let result_json (r : Bsp.result) =
  Json.Obj
    [
      ("exec_time_ns", Json.Str (Int64.to_string r.exec_time));
      ("iterations_done", Json.Int r.iterations_done);
      ("misses", Json.Int r.misses);
      ("checksum", Json.Num r.checksum);
      ("admitted", Json.Bool r.admitted);
    ]

(* Sum of a registry series over every CPU label: a gauge's value, a
   counter's or histogram's count (columns of {!Metrics.rows}). *)
let series_total m name =
  List.fold_left
    (fun acc row ->
      match row with
      | n :: _cpu :: kind :: count :: value :: _ when String.equal n name ->
        let cell = if String.equal kind "gauge" then value else count in
        acc +. Option.value ~default:0. (float_of_string_opt cell)
      | _ -> acc)
    0. (Metrics.rows m)

let bsp ~seed ~seconds =
  Util.ready ();
  Calib.emit ();
  let cal = ref (Calib.measure ()) in
  Util.repeat_for ~seconds ~min_units:2 (fun () ->
    let obs = Sink.create ~trace:false () in
    let wall, r = Clock.timed (fun () -> bsp_run ~seed ~obs) in
    let before = !cal in
    cal := Calib.measure ();
    let events = series_total (Sink.metrics obs) "engine.events_executed" in
    Json.emit "unit"
      [
        ("wall_s", Json.Num wall);
        ("scaled_s", Json.Num (Calib.scale ~before ~after:!cal wall));
        ("calib_s", Json.Num !cal);
        ("events", Json.Num events);
        ("result", result_json r);
        ("iterations_expected", Json.Int (bsp_cpus * bsp_iters));
        ("vm_hwm_kb", Json.Int (Util.vm_hwm_kb ()));
      ])

(* ---- traced breakdown ---- *)

(* Mean ns of one [Event_queue.add] plus one [pop] with [depth] events
   pending: each pop re-adds its payload a random 1-100 us later, the
   shape of the simulator's timer traffic. *)
let queue_ns_per_op ~depth ~ops =
  let rng = Rng.create 7L in
  let deltas = Array.init 4096 (fun _ -> Rng.range_ns rng (Time.us 1) (Time.us 100)) in
  let q = Event_queue.create ~dummy:0 in
  for i = 0 to depth - 1 do
    ignore (Event_queue.add q ~time:deltas.(i land 4095) i)
  done;
  let t0 = Clock.now_ns () in
  for i = 0 to ops - 1 do
    match Event_queue.pop q with
    | Some (t, v) -> ignore (Event_queue.add q ~time:(Int64.add t deltas.(i land 4095)) v)
    | None -> ()
  done;
  Int64.to_float (Int64.sub (Clock.now_ns ()) t0) /. float_of_int ops

let count_series =
  [
    ("core.sched_pass", "sched.pass");
    ("core.dispatch", "sched.dispatch");
    ("core.arrival", "sched.arrival");
    ("core.deadline_miss", "sched.deadline_miss");
    ("core.wake", "sched.wake");
    ("group.barrier_arrive", "barrier.arrive");
    ("kernel.steals", "account.steals");
    ("hw.irq", "irq.count");
  ]

let same_result (a : Bsp.result) (b : Bsp.result) =
  a.exec_time = b.exec_time && a.iterations_done = b.iterations_done
  && a.misses = b.misses
  && Float.equal a.checksum b.checksum
  && a.admitted = b.admitted

(* The simulator half of the traced run. Returns per-layer metrics and
   the output checks; spans land in [spans]. *)
let traced ~seed ~spans =
  let metrics = ref [] in
  let put name v = metrics := (name, v) :: !metrics in
  (* repro: one untraced pass, then one with a span per entry. *)
  let ctx = repro_ctx () in
  let plain_wall, (plain_digest, _) = Clock.timed (fun () -> repro_pass ctx) in
  let traced_wall, (digest, per_entry) =
    Clock.timed (fun () ->
        Span.with_ spans "repro.pass" (fun () -> repro_pass ~spans ctx))
  in
  List.iter (fun (name, secs, _) -> put (Printf.sprintf "repro.%s_s" name) secs) per_entry;
  let entry_sum = List.fold_left (fun acc (_, s, _) -> acc +. s) 0. per_entry in
  put "repro.entry_coverage" (entry_sum /. traced_wall);
  put "trace.overhead_ratio.repro" (traced_wall /. plain_wall);
  (* bsp-obs: three obs-on and three obs-off runs, alternating. *)
  let on_runs = ref [] and off_runs = ref [] in
  for _ = 1 to 3 do
    let obs = Sink.create ~trace:false () in
    let g0 = Gc.quick_stat () in
    let wall, r =
      Clock.timed (fun () ->
          Span.with_ spans "bsp.run.obs_on" (fun () -> bsp_run ~seed ~obs))
    in
    let g1 = Gc.quick_stat () in
    on_runs := (wall, r, obs, g0, g1) :: !on_runs;
    let wall, r =
      Clock.timed (fun () ->
          Span.with_ spans "bsp.run.obs_off" (fun () -> bsp_run ~seed ~obs:Sink.null))
    in
    off_runs := (wall, r) :: !off_runs
  done;
  let _, r0, obs, g0, g1 = List.hd !on_runs in
  let m = Sink.metrics obs in
  let events = series_total m "engine.events_executed" in
  let hwm = series_total m "engine.queue_depth_hwm" in
  let wall_on = Util.median (Array.of_list (List.map (fun (w, _, _, _, _) -> w) !on_runs)) in
  let wall_off = Util.median (Array.of_list (List.map fst !off_runs)) in
  let obs_identical =
    List.for_all (fun (_, r, _, _, _) -> same_result r r0) !on_runs
    && List.for_all (fun (_, r) -> same_result r r0) !off_runs
  in
  put "engine.events" events;
  put "engine.queue_depth_hwm" hwm;
  let qns =
    Util.median
      (Array.init 3 (fun _ ->
           Span.with_ spans "engine.queue_bench" (fun () ->
               queue_ns_per_op ~depth:(max 1 (int_of_float hwm)) ~ops:1_000_000)))
  in
  put "engine.queue_ns_per_op" qns;
  put "engine.queue_share" (events *. qns /. 1e9 /. wall_on);
  put "engine.sim_events_per_s" (events /. wall_on);
  List.iter (fun (name, series) -> put name (series_total m series)) count_series;
  put "obs.self_s" (wall_on -. wall_off);
  put "obs.overhead_ratio" ((wall_on -. wall_off) /. wall_off);
  put "obs.series" (float_of_int (Metrics.size m));
  put "host.minor_words_per_event" ((g1.Gc.minor_words -. g0.Gc.minor_words) /. events);
  put "host.major_gcs" (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  (* Tracing cost on bsp-obs: the span and GC reads around a run. *)
  let plain_bsp, _ =
    Clock.timed (fun () -> bsp_run ~seed ~obs:(Sink.create ~trace:false ()))
  in
  put "trace.overhead_ratio.bsp-obs" (wall_on /. plain_bsp);
  ( List.rev !metrics,
    [
      ("repro_digest", Json.Str digest);
      ("repro_digest_untraced", Json.Str plain_digest);
      ("bsp_result", result_json r0);
      ("bsp_obs_identical", Json.Bool obs_identical);
    ] )
