(** Serving-throughput benchmark behind [hrt_sim bench serve].

    Boots a real {!Server} on a private Unix-domain socket in a spawned
    domain, then drives it with the {!Client} over a randomized corpus of
    analysis-heavy task sets (the same near-harmonic shape as
    [hrt_sim bench admit], rendered as protocol specs):

    - {e cold}: every set queried once against the fresh service — each
      round trip pays for a full oracle analysis;
    - {e warm}: the same corpus repeated — each round trip is framing,
      a fingerprint, and a cache hit;
    - {e batch}: warm passes again, [batch_size] sets per frame — the
      amortized serving ceiling.

    The warm replies are compared byte-for-byte to the cold ones
    ([identical]); the headline [warm_queries_per_sec] backs the CI
    regression gate ([BENCH_serve.json]), [warm_speedup_vs_cold] backs
    the ≥ 5x serving-memoization floor, and [batch_vs_single] the ≥ 1
    floor: a warm batch frame must not serve slower than single queries. *)

val measure :
  ?seed:int64 -> ?batch_size:int -> sets:int -> repeats:int -> jobs:int ->
  unit -> Hrt_harness.Bench.row list
(** Rows: [sets], [repeats], [warm_queries_per_sec],
    [cold_queries_per_sec], [warm_speedup_vs_cold] (warm over cold),
    [batch_queries_per_sec] (warm passes, [batch_size] sets per frame),
    [batch_vs_single] (batch over warm), [batch_size], [identical] (1 when every warm reply equals its cold
    reply byte for byte), [shed] (sets the server answered [overloaded];
    expect 0), [cache_hits] and [cache_misses]. *)
