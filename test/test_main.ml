let () =
  Alcotest.run "hrt"
    [
      ("time", Test_time.suite);
      ("rng", Test_rng.suite);
      ("event_queue", Test_event_queue.suite);
      ("engine", Test_engine.suite);
      ("stats", Test_stats.suite);
      ("par", Test_par.suite);
      ("obs", Test_obs.suite);
      ("hw", Test_hw.suite);
      ("kernel", Test_kernel.suite);
      ("buddy", Test_buddy.suite);
      ("core-data", Test_core_data.suite);
      ("policy", Test_policy.suite);
      ("scheduler", Test_sched.suite);
      ("scheduler-edge", Test_sched_edge.suite);
      ("group", Test_group.suite);
      ("bsp", Test_bsp.suite);
      ("properties", Test_props.suite);
      ("harness", Test_harness.suite);
      ("golden", Test_golden.suite);
      ("cyclic", Test_cyclic.suite);
      ("soak", Test_soak.suite);
      ("omp-runtime", Test_omp.suite);
      ("nesl", Test_nesl.suite);
      ("verify", Test_verify.suite);
      ("fault", Test_fault.suite);
      ("lint", Test_lint.suite);
      ("admit", Test_admit.suite);
      ("serve", Test_serve.suite);
      ("bench", Test_bench.suite);
    ]
