open Hrt_engine

type sample = {
  name : string;
  seconds : float;
  events_per_sec : float;
  minor_words_per_event : float;
}

(* One timed run: settle the heap first so the measurement window only sees
   the workload's own allocation, then read wall time and minor words. *)
let timed f =
  Gc.full_major ();
  let mw0 = Gc.minor_words () in
  let t0 = Clock.now () in
  f ();
  let seconds = Clock.now () -. t0 in
  (seconds, Gc.minor_words () -. mw0)

let mk_sample name ~events (seconds, minor_words) =
  {
    name;
    seconds;
    events_per_sec = (if seconds > 0. then float_of_int events /. seconds else 0.);
    minor_words_per_event = minor_words /. float_of_int events;
  }

(* Per-source reschedule stride: small, deterministic, and co-prime-ish so
   the wheel sees a realistic spread of near-future slots rather than one
   hot slot. *)
let stride i = Int64.of_int (1 + (i * 7 mod 97))

(* The engine as the scheduler core uses it: every source schedules one
   cached action value, so steady state allocates nothing but the advancing
   clock's boxed int64s. *)
let run_wheel_actions ~events ~sources =
  let eng = Engine.create () in
  let remaining = ref events in
  let actions = Array.make sources (Engine.Callback (fun _ -> ())) in
  for i = 0 to sources - 1 do
    let after = stride i in
    let key =
      Engine.register_source eng (fun eng ->
          if !remaining > 0 then begin
            decr remaining;
            ignore (Engine.schedule_action_after eng ~after actions.(i))
          end)
    in
    actions.(i) <- Engine.Timer_fire key
  done;
  for i = 0 to sources - 1 do
    ignore (Engine.schedule_action eng ~at:(Int64.of_int (i + 1)) actions.(i))
  done;
  mk_sample "wheel+actions" ~events (timed (fun () -> Engine.run eng))

(* Same wheel-backed engine, but every reschedule allocates a fresh closure
   (the pre-refactor calling convention). Isolates the dispatch win from
   the queue win. *)
let run_wheel_closures ~events ~sources =
  let eng = Engine.create () in
  let remaining = ref events in
  let rec step after eng =
    if !remaining > 0 then begin
      decr remaining;
      ignore (Engine.schedule_after eng ~after (step after))
    end
  in
  for i = 0 to sources - 1 do
    ignore (Engine.schedule eng ~at:(Int64.of_int (i + 1)) (step (stride i)))
  done;
  mk_sample "wheel+closures" ~events (timed (fun () -> Engine.run eng))

(* The original core, reconstructed: a binary heap of closure payloads
   driven by pop, one record + one closure + one option/tuple per event. *)
let run_heap_baseline ~events ~sources =
  let q : (unit -> unit) Heap_queue.t = Heap_queue.create () in
  let now = ref 0L in
  let remaining = ref events in
  let rec step after () =
    if !remaining > 0 then begin
      decr remaining;
      ignore (Heap_queue.add q ~time:(Int64.add !now after) (step after))
    end
  in
  for i = 0 to sources - 1 do
    ignore (Heap_queue.add q ~time:(Int64.of_int (i + 1)) (step (stride i)))
  done;
  let drain () =
    let continue = ref true in
    while !continue do
      match Heap_queue.pop q with
      | Some (t, f) ->
        now := t;
        f ()
      | None -> continue := false
    done
  in
  mk_sample "heap+closures" ~events (timed drain)

(* Queue-structure churn at a fixed population: each op removes the
   earliest entry and re-inserts it [4 * size] ns later, each structure
   through its engine-facing hot path (wheel: take / defer_inflight;
   heap: pop / add). ns/op as a function of population locates the
   crossover between O(1) wheel traffic and O(log n) sifting. *)
let churn_sizes = [ 16; 64; 256; 1024; 4096; 16384 ]

let churn_wheel ~size ~ops =
  let q = Event_queue.create ~dummy:0 in
  let span = Int64.of_int (4 * size) in
  for i = 0 to size - 1 do
    ignore (Event_queue.add q ~time:(Int64.of_int (1 + (i * 13 mod (4 * size)))) 0)
  done;
  let seconds, _ =
    timed (fun () ->
        for _ = 1 to ops do
          let h = Event_queue.take q in
          let t = Int64.of_int (Event_queue.inflight_tick q h) in
          Event_queue.defer_inflight q h ~time:(Int64.add t span)
        done)
  in
  seconds *. 1e9 /. float_of_int ops

let churn_heap ~size ~ops =
  let q : int Heap_queue.t = Heap_queue.create () in
  let span = Int64.of_int (4 * size) in
  for i = 0 to size - 1 do
    ignore (Heap_queue.add q ~time:(Int64.of_int (1 + (i * 13 mod (4 * size)))) 0)
  done;
  let seconds, _ =
    timed (fun () ->
        for _ = 1 to ops do
          match Heap_queue.pop q with
          | Some (t, v) -> ignore (Heap_queue.add q ~time:(Int64.add t span) v)
          | None -> assert false
        done)
  in
  seconds *. 1e9 /. float_of_int ops

let measure ~events ~sources ~churn_ops =
  let wheel = run_wheel_actions ~events ~sources in
  let wheel_cl = run_wheel_closures ~events ~sources in
  let heap = run_heap_baseline ~events ~sources in
  let churn =
    List.concat_map
      (fun size ->
        (* Heap before wheel at each size: the order BENCH_engine.json's
           churn figures were measured in. *)
        let heap_ns = churn_heap ~size ~ops:churn_ops in
        let wheel_ns = churn_wheel ~size ~ops:churn_ops in
        let metric q = Printf.sprintf "churn.%d.%s_ns_per_op" size q in
        [
          Bench.lower (metric "wheel") ~unit:"ns" wheel_ns;
          Bench.lower (metric "heap") ~unit:"ns" heap_ns;
        ])
      churn_sizes
  in
  let sample s =
    [
      Bench.higher (s.name ^ ".events_per_sec") ~unit:"1/s" s.events_per_sec;
      Bench.lower (s.name ^ ".seconds") ~unit:"s" s.seconds;
      Bench.lower
        (s.name ^ ".minor_words_per_event")
        ~unit:"words" s.minor_words_per_event;
    ]
  in
  [
    Bench.higher "events" ~unit:"count" (float_of_int events);
    Bench.higher "sources" ~unit:"count" (float_of_int sources);
    Bench.higher "wheel_events_per_sec" ~unit:"1/s" wheel.events_per_sec;
    Bench.higher "speedup_vs_heap" ~unit:"ratio"
      (if heap.events_per_sec > 0. then
         wheel.events_per_sec /. heap.events_per_sec
       else 0.);
  ]
  @ List.concat_map sample [ wheel; wheel_cl; heap ]
  @ churn
