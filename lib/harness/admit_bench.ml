open Hrt_engine
open Hrt_core
open Hrt_analysis
open Hrt_par

(* Near-harmonic periods whose lcm is 252 ms: the EDF demand scan walks
   a few thousand deadlines per analysis, so a cold query costs orders
   of magnitude more than the fingerprint-plus-lookup of a warm one —
   the regime the memoization is for. *)
let palette =
  [| Time.us 500; Time.us 600; Time.us 700; Time.us 800; Time.us 900; Time.ms 1 |]

let gen_taskset ~seed index =
  let rng = Rng.create Int64.(add seed (mul 998_244_353L (of_int index))) in
  let n = 6 + Rng.int rng 7 in
  let target = 0.5 +. (0.4 *. Rng.float rng) in
  let tasks =
    List.init n (fun _ ->
        let period = palette.(Rng.int rng (Array.length palette)) in
        let share = target /. float_of_int n in
        let slice =
          Time.min period
            (Time.max (Time.us 5)
               (Int64.of_float (Int64.to_float period *. share)))
        in
        Constraints.periodic ~period ~slice ())
  in
  let policy = if index mod 2 = 0 then Config.Edf else Config.Rm in
  let config = { Config.default with Config.policy } in
  Taskset.make ~config
    ~overhead_ns:(Taskset.overhead_of_platform Hrt_hw.Platform.phi)
    tasks

let timed f = Clock.timed f

let measure ?(seed = 42L) ~sets ~repeats ~jobs () =
  let corpus = List.init sets (gen_taskset ~seed) in
  let svc = Service.create () in
  let cold_seconds, seq_results =
    timed (fun () -> Service.batch svc corpus)
  in
  let warm_total, _ =
    timed (fun () ->
        for _ = 1 to repeats do
          ignore (Service.batch svc corpus)
        done)
  in
  let pool = Par.Pool.create ~jobs in
  let par_total, par_results =
    timed (fun () ->
        let last = ref [] in
        for _ = 1 to repeats do
          last := Service.batch ~pool svc corpus
        done;
        !last)
  in
  let stats = Service.stats svc in
  let qps n seconds = if seconds > 0. then float_of_int n /. seconds else 0. in
  let cold_qps = qps sets cold_seconds in
  let warm_qps = qps (sets * repeats) warm_total in
  let count metric n = Bench.higher metric ~unit:"count" (float_of_int n) in
  [
    count "sets" sets;
    count "repeats" repeats;
    Bench.higher "warm_queries_per_sec" ~unit:"1/s" warm_qps;
    Bench.higher "cold_queries_per_sec" ~unit:"1/s" cold_qps;
    Bench.higher "warm_speedup_vs_cold" ~unit:"ratio"
      (if cold_qps > 0. then warm_qps /. cold_qps else 0.);
    Bench.higher "par_queries_per_sec" ~unit:"1/s"
      (qps (sets * repeats) par_total);
    Bench.higher "identical" ~unit:"flag"
      (if par_results = seq_results then 1. else 0.);
    count "cache_hits" stats.Service.hits;
    Bench.lower "cache_misses" ~unit:"count" (float_of_int stats.Service.misses);
  ]
