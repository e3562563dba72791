(** Admission-service benchmark behind [hrt_sim bench admit].

    Measures the memoized {!Hrt_analysis.Service} on a randomized corpus
    of analysis-heavy task sets (6-12 tasks, near-harmonic periods with a
    252 ms hyperperiod, EDF and RM alternating):

    - {e cold}: every query distinct against a fresh service — each pays
      for a full oracle analysis;
    - {e warm}: the same batch repeated — every query is a fingerprint
      plus a cache hit;
    - {e par}: the warm batch again with a {!Hrt_par.Par} pool of [jobs]
      domains, verifying the results stay identical to the sequential
      run. Hits are answered on the caller, so this costs what warm
      does.

    The headline [warm_queries_per_sec] backs the CI regression gate
    ([BENCH_admit.json]); [warm_speedup_vs_cold] backs the ≥ 10x
    memoization claim and [par_vs_warm] the ≥ 0.8 no-fan-out-on-hits
    claim, both enforced as floors next to that gate. *)

val measure :
  ?seed:int64 -> sets:int -> repeats:int -> jobs:int -> unit -> Bench.row list
(** Rows: [sets], [repeats], [warm_queries_per_sec],
    [cold_queries_per_sec], [warm_speedup_vs_cold] (warm over cold),
    [par_queries_per_sec] (warm passes at [jobs] domains),
    [par_vs_warm] (par over warm), [identical]
    (1 when the parallel results equal the sequential ones),
    [cache_hits] and [cache_misses]. *)
