open Hrt_engine
open Hrt_core
open Hrt_obs

(* ---- metrics registry ---- *)

let test_counter_identity () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m "x" in
  let c2 = Metrics.counter m "x" in
  Metrics.incr c1;
  Metrics.add c2 2;
  (* Same name + label resolves to the same instrument. *)
  Alcotest.(check int) "shared count" 3 (Metrics.counter_value c1);
  Alcotest.(check int) "one instrument" 1 (Metrics.size m)

let test_cpu_label_separates () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~cpu:0 "x" in
  let b = Metrics.counter m ~cpu:1 "x" in
  let g = Metrics.counter m "x" in
  Metrics.incr a;
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "cpu 0" 2 (Metrics.counter_value a);
  Alcotest.(check int) "cpu 1" 1 (Metrics.counter_value b);
  Alcotest.(check int) "global" 0 (Metrics.counter_value g);
  Alcotest.(check int) "three instruments" 3 (Metrics.size m)

let test_kind_mismatch_rejected () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  Alcotest.check_raises "gauge over counter"
    (Invalid_argument "Metrics.gauge: \"x\" is not a gauge") (fun () ->
      ignore (Metrics.gauge m "x"))

let test_gauge_watermark () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "hwm" in
  Metrics.watermark g (-5.);
  Alcotest.(check (float 0.)) "first call sets" (-5.) (Metrics.gauge_value g);
  Metrics.watermark g (-9.);
  Alcotest.(check (float 0.)) "lower ignored" (-5.) (Metrics.gauge_value g);
  Metrics.watermark g 3.;
  Alcotest.(check (float 0.)) "higher wins" 3. (Metrics.gauge_value g)

let test_histo_matches_percentile () =
  let m = Metrics.create () in
  let h = Metrics.histo m "lat" in
  let p = Hrt_stats.Percentile.create () in
  let r = Rng.create 9L in
  for _ = 1 to 500 do
    let v = Rng.float r *. 1000. in
    Metrics.observe h v;
    Hrt_stats.Percentile.add p v
  done;
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "p%.0f" q)
        (Hrt_stats.Percentile.value p q)
        (Metrics.histo_percentile h q))
    [ 50.; 90.; 99.; 100. ];
  Alcotest.(check int) "count" 500 (Metrics.histo_count h)

let test_rows_shape () =
  let m = Metrics.create () in
  Metrics.incr (Metrics.counter m ~cpu:1 "b");
  Metrics.set (Metrics.gauge m "a") 2.5;
  Metrics.observe (Metrics.histo m "c") 4.;
  let rows = Metrics.rows m in
  Alcotest.(check int) "row count" 3 (List.length rows);
  List.iter
    (fun row ->
      Alcotest.(check int) "width matches header"
        (List.length Metrics.header)
        (List.length row))
    rows;
  (* Sorted by (name, cpu). *)
  Alcotest.(check (list string)) "sort order" [ "a"; "b"; "c" ]
    (List.map List.hd rows)

(* ---- sink ---- *)

let test_null_sink_noop () =
  let s = Sink.null in
  Alcotest.(check bool) "disabled" false (Sink.enabled s);
  Sink.emit s ~time:5L ~cpu:0 (Event.Dispatch { tid = 1; thread = "t" });
  Alcotest.(check bool) "no tracer" true (Sink.tracer s = None);
  Alcotest.(check int) "no metrics recorded" 0 (Metrics.size (Sink.metrics s))

let test_sink_derives_metrics () =
  let s = Sink.create () in
  Sink.emit s ~time:10L ~cpu:0
    (Event.Deadline_miss
       { tid = 3; thread = "rt"; lateness_ns = 2_000L; crit = "mid" });
  Sink.emit s ~time:20L ~cpu:0
    (Event.Deadline_miss
       { tid = 3; thread = "rt"; lateness_ns = 4_000L; crit = "mid" });
  let m = Sink.metrics s in
  Alcotest.(check int) "miss counter" 2
    (Metrics.counter_value (Metrics.counter m ~cpu:0 "sched.deadline_miss"));
  let h = Metrics.histo m ~cpu:0 "sched.miss_lateness_us" in
  Alcotest.(check int) "lateness samples" 2 (Metrics.histo_count h);
  Alcotest.(check (float 1e-9)) "lateness max us" 4. (Metrics.histo_max h);
  let tr = Option.get (Sink.tracer s) in
  Alcotest.(check int) "traced" 2 (Tracer.count tr ~kind:"deadline-miss")

let test_subscriber () =
  let s = Sink.create ~trace:false () in
  let seen = ref [] in
  Sink.subscribe s (fun ~time ~cpu:_ ev -> seen := (time, Event.kind ev) :: !seen);
  Sink.emit s ~time:1L ~cpu:0 Event.Idle;
  Sink.emit s ~time:2L ~cpu:1 (Event.Irq { dur_ns = 100L });
  Alcotest.(check (list (pair int64 string)))
    "subscriber saw all"
    [ (1L, "idle"); (2L, "irq") ]
    (List.rev !seen)

(* ---- chrome trace export ---- *)

let test_chrome_json_shape () =
  let span =
    Export.chrome_json
      { Tracer.time = 1_500L; cpu = 2; event = Event.Sched_pass { dur_ns = 3_000L } }
  in
  Alcotest.(check string) "complete event"
    "{\"name\":\"sched-pass\",\"cat\":\"sched\",\"ph\":\"X\",\"ts\":1.500,\"dur\":3.000,\"pid\":2,\"tid\":0,\"args\":{}}"
    span;
  let inst =
    Export.chrome_json
      {
        Tracer.time = 2_000L;
        cpu = 0;
        event = Event.Dispatch { tid = 7; thread = "a\"b" };
      }
  in
  Alcotest.(check string) "instant event, escaped args"
    "{\"name\":\"dispatch\",\"cat\":\"sched\",\"ph\":\"i\",\"s\":\"t\",\"ts\":2.000,\"pid\":0,\"tid\":7,\"args\":{\"tid\":\"7\",\"thread\":\"a\\\"b\"}}"
    inst

let test_chrome_lines_bracketed () =
  let tr = Tracer.create () in
  Tracer.record tr ~time:1L ~cpu:0 Event.Idle;
  Tracer.record tr ~time:2L ~cpu:1 Event.Idle;
  let lines = Export.chrome_lines tr in
  Alcotest.(check string) "opens array" "[" (List.hd lines);
  Alcotest.(check string) "closes array" "]" (List.nth lines (List.length lines - 1));
  (* Every body line except the last ends with a comma (valid JSON array). *)
  let body = List.filteri (fun i _ -> i > 0 && i < List.length lines - 1) lines in
  List.iteri
    (fun i line ->
      let wants_comma = i < List.length body - 1 in
      Alcotest.(check bool)
        (Printf.sprintf "comma on line %d" i)
        wants_comma
        (String.length line > 0 && line.[String.length line - 1] = ','))
    body;
  (* Two CPUs seen -> two process_name metadata lines + two events. *)
  Alcotest.(check int) "line count" (2 + 2 + 2) (List.length lines)

let test_json_escape () =
  Alcotest.(check string) "control chars" "a\\nb\\t\\\\\\\"c"
    (Export.json_escape "a\nb\t\\\"c")

(* ---- end to end: a real scheduler run produces a coherent trace ---- *)

let test_end_to_end_events () =
  let sink = Sink.create () in
  let config = { Config.default with Config.admission_control = false } in
  let sys =
    Scheduler.create ~num_cpus:2 ~config ~obs:sink Hrt_hw.Platform.phi
  in
  let period = Time.us 100 in
  (* A slice of 95% of the period plus timer overhead forces misses. *)
  let slice = Time.us 95 in
  ignore (Hrt_harness.Exp.periodic_thread sys ~cpu:1 ~period ~slice ());
  Scheduler.run ~until:(Time.ms 10) sys;
  let tr = Option.get (Sink.tracer sink) in
  Alcotest.(check bool) "dispatches recorded" true
    (Tracer.count tr ~kind:"dispatch" > 0);
  Alcotest.(check bool) "sched passes recorded" true
    (Tracer.count tr ~kind:"sched-pass" > 0);
  let misses = Scheduler.total_misses sys in
  Alcotest.(check int) "trace misses = account misses" misses
    (Tracer.count tr ~kind:"deadline-miss");
  Alcotest.(check bool) "misses happened" true (misses > 0);
  (* run() snapshots engine gauges. *)
  let m = Sink.metrics sink in
  Alcotest.(check bool) "events_executed gauge" true
    (Metrics.gauge_value (Metrics.gauge m "engine.events_executed") > 0.);
  Alcotest.(check bool) "queue hwm gauge" true
    (Metrics.gauge_value (Metrics.gauge m "engine.queue_depth_hwm") > 0.);
  (* Timestamps are monotone per CPU. *)
  let last = Array.make 2 Int64.min_int in
  Tracer.iter tr (fun r ->
      Alcotest.(check bool) "monotone per cpu" true
        (Int64.compare r.Tracer.time last.(r.Tracer.cpu) >= 0);
      last.(r.Tracer.cpu) <- r.Tracer.time)

let test_disabled_run_records_nothing () =
  let config = { Config.default with Config.admission_control = false } in
  let sys =
    Scheduler.create ~num_cpus:2 ~config ~obs:Sink.null Hrt_hw.Platform.phi
  in
  ignore
    (Hrt_harness.Exp.periodic_thread sys ~cpu:1 ~period:(Time.us 100)
       ~slice:(Time.us 50) ());
  Scheduler.run ~until:(Time.ms 5) sys;
  Alcotest.(check int) "no metrics" 0 (Metrics.size (Sink.metrics Sink.null))

(* ---- event part round trips ---- *)

(* One sample per constructor; coverage is checked against
   [Event.all_kinds] so adding a constructor without extending this list
   fails the test. *)
let event_samples =
  [
    Event.Dispatch { tid = 3; thread = "t3" };
    Event.Preempt { tid = 3; thread = "t3" };
    Event.Deadline_miss { tid = 3; thread = "t3"; lateness_ns = 17L; crit = "high" };
    Event.Admission_accept { tid = 4; cls = Event.Cls_periodic };
    Event.Admission_reject
      { tid = 5; cls = Event.Cls_sporadic; reason = "density-bound" };
    Event.Arrival
      { tid = 3; thread = "t3"; arrival = 10L; deadline = 1_010L; period = 1_000L };
    Event.Complete { tid = 3; thread = "t3" };
    Event.Block { tid = 3; thread = "t3" };
    Event.Wake { tid = 3; thread = "t3" };
    Event.Irq { dur_ns = 250L };
    Event.Sched_pass { dur_ns = 420L };
    Event.Steal_attempt { victim = Some 2; success = true };
    Event.Steal_attempt { victim = None; success = false };
    Event.Barrier_arrive { barrier = 1; tid = 7; order = 0 };
    Event.Barrier_release { barrier = 1; parties = 4; wait_ns = 900L };
    Event.Group_phase { tid = 7; phase = "join" };
    Event.Elected { election = 0; round = 2; tid = 7; leader = true };
    Event.Policy { policy = "edf" };
    Event.Fault_plan { plan = "smi-storm" };
    Event.Overload { boundary = "mid" };
    Event.Overload { boundary = "none" };
    Event.Shed { tid = 9; thread = "t9"; crit = "low" };
    Event.Demote { tid = 9; thread = "t9" };
    Event.Recover { tid = 9; thread = "t9"; crit = "low" };
    Event.Idle;
  ]

let test_event_round_trip () =
  List.iter
    (fun e ->
      let rebuilt =
        Event.of_parts ~kind:(Event.kind e) ~args:(Event.args e)
          ~dur_ns:(Event.dur_ns e)
      in
      match rebuilt with
      | Some e' when e' = e -> ()
      | Some _ -> Alcotest.failf "%s: round trip changed the event" (Event.kind e)
      | None -> Alcotest.failf "%s: of_parts rejected its own parts" (Event.kind e))
    event_samples

let test_event_samples_cover_all_kinds () =
  let sampled =
    List.sort_uniq compare (List.map Event.kind event_samples)
  in
  let all = List.sort_uniq compare Event.all_kinds in
  Alcotest.(check (list string)) "every constructor sampled" all sampled

(* ---- the sink's handle table against per-event lookups ---- *)

(* The series each event feeds, looked up by name on every event: the
   specification the sink's pre-resolved handle table must reproduce. *)
let reference_update m ~cpu ev =
  let c name = Metrics.incr (Metrics.counter m ~cpu name) in
  let h name ns =
    Metrics.observe (Metrics.histo m ~cpu name) (Int64.to_float ns /. 1_000.)
  in
  match ev with
  | Event.Dispatch _ -> c "sched.dispatch"
  | Event.Preempt _ -> c "sched.preempt"
  | Event.Deadline_miss { lateness_ns; _ } ->
    c "sched.deadline_miss";
    h "sched.miss_lateness_us" lateness_ns
  | Event.Admission_accept _ -> c "admission.accept"
  | Event.Admission_reject _ -> c "admission.reject"
  | Event.Arrival _ -> c "sched.arrival"
  | Event.Complete _ -> c "sched.complete"
  | Event.Block _ -> c "sched.block"
  | Event.Wake _ -> c "sched.wake"
  | Event.Irq { dur_ns } ->
    c "irq.count";
    h "irq.dur_us" dur_ns
  | Event.Sched_pass { dur_ns } ->
    c "sched.pass";
    h "sched.pass_us" dur_ns
  | Event.Steal_attempt { success; _ } ->
    c "steal.attempt";
    if success then c "steal.success"
  | Event.Barrier_arrive _ -> c "barrier.arrive"
  | Event.Barrier_release { wait_ns; _ } ->
    c "barrier.release";
    h "barrier.wait_us" wait_ns
  | Event.Group_phase { phase; _ } -> c ("group.phase." ^ phase)
  | Event.Elected { leader; _ } ->
    c "group.election.decided";
    if leader then c "group.election.leader"
  | Event.Policy { policy } ->
    Metrics.set (Metrics.gauge m ~cpu ("sched.policy." ^ policy)) 1.
  | Event.Fault_plan _ -> c "fault.plan_armed"
  | Event.Overload { boundary } ->
    c "sched.overload_transition";
    Metrics.set
      (Metrics.gauge m ~cpu "sched.overload")
      (if String.equal boundary "none" then 0. else 1.)
  | Event.Shed _ -> c "sched.shed"
  | Event.Demote _ -> c "sched.demote"
  | Event.Recover _ -> c "sched.recover"
  | Event.Idle -> c "sched.idle_transition"

(* Every constructor (plus a second group phase and the miss-time
   histogram), on CPUs visited out of order so rows grow after first use,
   twice over so the second pass runs on cached handles. *)
let test_handle_table_matches_lookup () =
  let sink = Sink.create ~trace:false () in
  let m = Metrics.create () in
  let events =
    event_samples @ [ Event.Group_phase { tid = 7; phase = "barrier" } ]
  in
  for _ = 1 to 2 do
    List.iter
      (fun cpu ->
        List.iteri
          (fun i ev ->
            Sink.emit sink ~time:(Int64.of_int i) ~cpu ev;
            reference_update m ~cpu ev)
          events;
        Sink.record_miss_time sink ~cpu (Int64.of_int (1_500 * (cpu + 1)));
        Metrics.observe
          (Metrics.histo m ~cpu "sched.miss_time_us")
          (Int64.to_float (Int64.of_int (1_500 * (cpu + 1))) /. 1_000.))
      [ 2; 0; 5; 1; 3; 4 ]
  done;
  Alcotest.(check (list (list string)))
    "same rows" (Metrics.rows m)
    (Metrics.rows (Sink.metrics sink));
  Alcotest.(check int) "same registry size" (Metrics.size m)
    (Metrics.size (Sink.metrics sink))

(* Once a (series, cpu) handle is resolved, emitting allocates nothing
   for counter events, and only the boxed microsecond sample for
   histogram events. *)
let test_emit_allocation () =
  let sink = Sink.create ~trace:false () in
  let counters =
    [|
      Event.Dispatch { tid = 1; thread = "t" };
      Event.Arrival
        { tid = 1; thread = "t"; arrival = 0L; deadline = 100L; period = 100L };
      Event.Complete { tid = 1; thread = "t" };
      Event.Idle;
      Event.Group_phase { tid = 1; phase = "done" };
    |]
  in
  let histos = [| Event.Sched_pass { dur_ns = 420L }; Event.Irq { dur_ns = 250L } |] in
  let words_per_event evs n =
    let emit_all () =
      for i = 1 to n do
        Sink.emit sink ~time:0L ~cpu:(i land 3) evs.(i mod Array.length evs)
      done
    in
    (* Warm up: resolve every handle and grow the sample arrays past the
       minor heap's size limit. *)
    emit_all ();
    let w0 = Gc.minor_words () in
    emit_all ();
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let c = words_per_event counters 10_000 in
  if c > 0.01 then Alcotest.failf "counter events: %.3f minor words/event" c;
  let h = words_per_event histos 10_000 in
  if h > 2.01 then Alcotest.failf "histogram events: %.3f minor words/event" h

(* ---- byte-identical metric exports ---- *)

(* MD5 of [Metrics.rows] for two short seeded runs, recorded from the
   sink that looked every series up by name on every event (minus that
   code's [engine.pending] probe row, a duplicate of
   [engine.pending_events] since removed). *)
let rows_md5 m =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (String.concat ",") (Metrics.rows m))))

let has_series m name =
  List.exists (fun row -> List.hd row = name) (Metrics.rows m)

let test_pinned_rows_bsp () =
  let obs = Sink.create ~trace:false () in
  let params =
    { (Hrt_bsp.Bsp.fine_grain ~cpus:4 ~barrier:false) with Hrt_bsp.Bsp.iters = 300 }
  in
  let mode =
    Hrt_bsp.Bsp.Rt
      { period = Time.us 100; slice = Time.us 90; phase_correction = true }
  in
  ignore (Hrt_bsp.Bsp.run ~seed:7L ~policy:Config.Edf ~obs params mode);
  let m = Sink.metrics obs in
  Alcotest.(check bool) "one pending gauge" false (has_series m "engine.pending");
  Alcotest.(check string) "rows digest" "4607e8ace637572582948e7dc50d9cf8"
    (rows_md5 m)

(* A degradation run under an SMI storm (misses, overload, shedding) next
   to a two-member group admission (phases, barrier releases). *)
let test_pinned_rows_fault () =
  let obs = Sink.create ~trace:false () in
  let config =
    { Config.default with Config.degradation = true; work_stealing = false }
  in
  let sys =
    Scheduler.create ~seed:11L ~num_cpus:4 ~config ~obs Hrt_hw.Platform.phi
  in
  Hrt_harness.Exp.run_group_admission sys ~workers:2
    (Constraints.periodic ~period:(Time.ms 1) ~slice:(Time.us 100) ())
    ();
  let spawn name crit period slice =
    let constr = Constraints.periodic ~period ~slice () in
    ignore
      (Scheduler.spawn sys ~name ~cpu:3 ~bound:true ~crit
         (Program.seq
            [
              Program.of_steps
                (Scheduler.admission_ops sys constr ~on_result:(fun _ -> ()));
              Program.compute_forever (Time.sec 3600);
            ]))
  in
  spawn "hi" Constraints.High (Time.us 500) (Time.us 50);
  spawn "lo-a" Constraints.Low (Time.ms 1) (Time.us 300);
  spawn "lo-b" Constraints.Low (Time.ms 1) (Time.us 300);
  Hrt_fault.Fault.inject
    (Option.get (Hrt_fault.Fault.of_name "smi-storm"))
    sys;
  Scheduler.run ~until:(Time.ms 40) sys;
  let m = Sink.metrics obs in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("emits " ^ name) true (has_series m name))
    [
      "sched.deadline_miss";
      "sched.overload_transition";
      "sched.shed";
      "group.phase.start";
      "barrier.release";
    ];
  Alcotest.(check bool) "one pending gauge" false (has_series m "engine.pending");
  Alcotest.(check string) "rows digest" "1a6080647026f7d46829b828d79075ac"
    (rows_md5 m)

let test_of_parts_rejects_malformed () =
  Alcotest.(check bool)
    "unknown kind" true
    (Event.of_parts ~kind:"no-such-event" ~args:[] ~dur_ns:None = None);
  Alcotest.(check bool)
    "missing field" true
    (Event.of_parts ~kind:"dispatch" ~args:[ ("thread", "t3") ] ~dur_ns:None
    = None);
  Alcotest.(check bool)
    "malformed number" true
    (Event.of_parts ~kind:"dispatch"
       ~args:[ ("tid", "xyz"); ("thread", "t3") ]
       ~dur_ns:None
    = None)

(* ---- merge / child / absorb (the parallel-sweep fold-back) ---- *)

let test_metrics_merge () =
  let dst = Metrics.create () and src = Metrics.create () in
  Metrics.add (Metrics.counter dst "c") 2;
  Metrics.add (Metrics.counter src "c") 3;
  Metrics.add (Metrics.counter src "only-src") 7;
  Metrics.set (Metrics.gauge src "g") 1.5;
  ignore (Metrics.gauge dst "untouched");
  let h = Metrics.histo dst "h" in
  Metrics.observe h 1.;
  Metrics.observe (Metrics.histo src "h") 3.;
  Metrics.merge dst src;
  Alcotest.(check int) "counters add" 5 (Metrics.counter_value (Metrics.counter dst "c"));
  Alcotest.(check int) "missing counter created" 7
    (Metrics.counter_value (Metrics.counter dst "only-src"));
  Alcotest.(check (float 0.)) "set gauge copied" 1.5
    (Metrics.gauge_value (Metrics.gauge dst "g"));
  Alcotest.(check int) "histo samples replayed" 2 (Metrics.histo_count h);
  Alcotest.(check (float 0.)) "histo max" 3. (Metrics.histo_max h);
  (* src untouched, and no duplicated rows in dst. *)
  Alcotest.(check int) "src size unchanged" 4 (Metrics.size src);
  Alcotest.(check int) "dst rows = instruments" (Metrics.size dst)
    (List.length (Metrics.rows dst))

let test_metrics_merge_no_double_rows () =
  let dst = Metrics.create () and src = Metrics.create () in
  Metrics.incr (Metrics.counter dst "shared");
  Metrics.incr (Metrics.counter src "shared");
  Metrics.merge dst src;
  Metrics.merge dst src;
  Alcotest.(check int) "one row for the shared key" 1
    (List.length (Metrics.rows dst));
  Alcotest.(check int) "counts kept adding" 3
    (Metrics.counter_value (Metrics.counter dst "shared"))

let test_metrics_merge_kind_mismatch () =
  let dst = Metrics.create () and src = Metrics.create () in
  ignore (Metrics.counter dst "x");
  ignore (Metrics.gauge src "x");
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Metrics.merge: \"x\" is not a gauge in both registries") (fun () ->
      Metrics.merge dst src)

let test_sink_child_of_disabled_is_null () =
  let ch = Sink.child Sink.null in
  Alcotest.(check bool) "disabled" false (Sink.enabled ch)

let test_sink_absorb_replays_in_order () =
  let parent = Sink.create ~trace:true () in
  let seen = ref [] in
  Sink.subscribe parent (fun ~time ~cpu:_ ev -> seen := (time, Event.kind ev) :: !seen);
  Sink.emit parent ~time:1L ~cpu:0 Event.Idle;
  let ch = Sink.child parent in
  Alcotest.(check bool) "child enabled" true (Sink.enabled ch);
  Alcotest.(check bool) "child has its own tracer" true
    (Option.is_some (Sink.tracer ch));
  Sink.emit ch ~time:2L ~cpu:1 (Event.Irq { dur_ns = 100L });
  Sink.emit ch ~time:3L ~cpu:1 Event.Idle;
  (* Child events reach the parent's subscribers only at absorb time. *)
  Alcotest.(check int) "parent saw only its own event" 1 (List.length !seen);
  Sink.absorb parent ch;
  Alcotest.(check int) "replayed to subscribers" 3 (List.length !seen);
  Alcotest.(check bool) "in recorded order" true
    (List.rev_map fst !seen = [ 1L; 2L; 3L ]);
  (match Sink.tracer parent with
  | None -> Alcotest.fail "parent tracer"
  | Some tr -> Alcotest.(check int) "trace appended" 3 (Tracer.length tr));
  (* Child metrics folded in: the Irq event derived a counter. *)
  Alcotest.(check bool) "metrics merged" true
    (List.length (Metrics.rows (Sink.metrics parent)) > 0)

let suite =
  [
    Alcotest.test_case "counter identity by (name, cpu)" `Quick
      test_counter_identity;
    Alcotest.test_case "cpu label separates instruments" `Quick
      test_cpu_label_separates;
    Alcotest.test_case "kind mismatch rejected" `Quick
      test_kind_mismatch_rejected;
    Alcotest.test_case "gauge watermark" `Quick test_gauge_watermark;
    Alcotest.test_case "histogram matches Percentile" `Quick
      test_histo_matches_percentile;
    Alcotest.test_case "rows match header shape" `Quick test_rows_shape;
    Alcotest.test_case "null sink is a no-op" `Quick test_null_sink_noop;
    Alcotest.test_case "sink derives metrics from events" `Quick
      test_sink_derives_metrics;
    Alcotest.test_case "subscribers see every event" `Quick test_subscriber;
    Alcotest.test_case "chrome-trace event shape" `Quick test_chrome_json_shape;
    Alcotest.test_case "chrome-trace array framing" `Quick
      test_chrome_lines_bracketed;
    Alcotest.test_case "json escaping" `Quick test_json_escape;
    Alcotest.test_case "scheduler run traces coherently" `Quick
      test_end_to_end_events;
    Alcotest.test_case "disabled sink records nothing" `Quick
      test_disabled_run_records_nothing;
    Alcotest.test_case "event parts round trip" `Quick test_event_round_trip;
    Alcotest.test_case "round-trip samples cover all kinds" `Quick
      test_event_samples_cover_all_kinds;
    Alcotest.test_case "of_parts rejects malformed input" `Quick
      test_of_parts_rejects_malformed;
    Alcotest.test_case "handle table matches per-event lookups" `Quick
      test_handle_table_matches_lookup;
    Alcotest.test_case "enabled emit allocation" `Quick test_emit_allocation;
    Alcotest.test_case "pinned rows: fine-grain BSP" `Quick test_pinned_rows_bsp;
    Alcotest.test_case "pinned rows: fault plan + group" `Quick
      test_pinned_rows_fault;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "metrics merge: no duplicate rows" `Quick
      test_metrics_merge_no_double_rows;
    Alcotest.test_case "metrics merge: kind mismatch" `Quick
      test_metrics_merge_kind_mismatch;
    Alcotest.test_case "sink child of disabled is null" `Quick
      test_sink_child_of_disabled_is_null;
    Alcotest.test_case "sink absorb replays in order" `Quick
      test_sink_absorb_replays_in_order;
  ]
