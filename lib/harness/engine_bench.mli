(** Engine-core microbenchmark behind [hrt_sim bench engine].

    Three workloads of self-rescheduling event sources measure the
    zero-allocation refactor end to end:

    - ["wheel+actions"] — the current core: timing-wheel queue, cached
      monomorphic {!Hrt_engine.Engine.action} values;
    - ["wheel+closures"] — wheel queue, but a fresh closure per event
      (isolates the dispatch win from the queue win);
    - ["heap+closures"] — the original binary-heap core, reconstructed
      over {!Hrt_engine.Heap_queue}.

    A separate churn pass measures ns/op for each queue structure at fixed
    populations to locate the wheel-vs-heap crossover. The headline
    [wheel_events_per_sec] row (wheel+actions) backs the CI regression
    gate against [BENCH_engine.json]. *)

val measure : events:int -> sources:int -> churn_ops:int -> Bench.row list
(** Rows: the sizes, [wheel_events_per_sec], [speedup_vs_heap]
    (wheel+actions over heap+closures), each workload's events/sec,
    seconds and minor words per event, and the churn ns/op per
    population. *)
