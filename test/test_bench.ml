open Hrt_harness

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let doc ?(suite = "admit") rows =
  { Bench.suite; quick = Some false; jobs = Some 4; host_cores = None;
    ocaml = None; rows }

(* The decision alone: does the run pass? *)
let passes ?(gated = []) ?(floors = []) ?baseline run =
  Result.is_ok (Bench.verdict ~gated ~floors ?baseline run)

let with_value rows metric v =
  List.map
    (fun r -> if r.Bench.metric = metric then { r with Bench.value = v } else r)
    rows

(* ---- schema ---- *)

let test_round_trip () =
  let rows =
    [
      Bench.higher "warm_queries_per_sec" ~unit:"1/s" 153731.;
      Bench.lower "wheel+actions.seconds" ~unit:"s" 0.088389;
      Bench.lower "tiny" ~unit:"s" (0.1 +. 0.2);
      Bench.higher "identical" ~unit:"flag" 1.;
      Bench.lower "negative" ~unit:"count" (-3.);
    ]
  in
  let full =
    { (doc rows) with host_cores = Some 2; ocaml = Some Sys.ocaml_version }
  in
  List.iter
    (fun t ->
      let back = ok_or_fail (Bench.of_string (Bench.to_string t)) in
      Alcotest.(check bool) "same document" true (back = t))
    [ full; doc rows; { (doc []) with quick = None; jobs = None } ];
  let made = Bench.make ~suite:"engine" ~quick:true ~jobs:3 rows in
  Alcotest.(check (option int)) "jobs recorded as given" (Some 3)
    made.Bench.jobs;
  Alcotest.(check (option int)) "host cores"
    (Some (Domain.recommended_domain_count ()))
    made.Bench.host_cores

let test_malformed () =
  let good =
    Bench.to_string
      (doc [ Bench.higher "a" ~unit:"x" 1.; Bench.lower "b" ~unit:"x" 2. ])
  in
  let replace sub by =
    let i =
      let n = String.length sub in
      let rec go i = if String.sub good i n = sub then i else go (i + 1) in
      go 0
    in
    String.sub good 0 i ^ by
    ^ String.sub good (i + String.length sub)
        (String.length good - i - String.length sub)
  in
  Alcotest.(check bool) "good reads" true (Result.is_ok (Bench.of_string good));
  List.iter
    (fun (what, text) ->
      Alcotest.(check bool) what true (Result.is_error (Bench.of_string text)))
    [
      ("old schema", replace "hrt-bench/2" "hrt-admit-bench/1");
      ("unknown direction", replace {|"better": "lower"|} {|"better": "down"|});
      ("non-numeric value", replace {|"value": 2|} {|"value": two|});
      ("missing comma between rows", replace "},\n" "}\n");
      ("comma after the last row", replace "}\n  ]" "},\n  ]");
      ("unknown header field", replace {|"jobs": 4|} {|"cores": 4|});
      ("bad header value", replace {|"jobs": 4|} {|"jobs": four|});
      ("no suite", replace {|  "suite": "admit",|} "");
      ("truncated", String.sub good 0 (String.length good - 6));
      ("trailing garbage", good ^ "x\n");
      ("empty", "");
    ]

(* ---- gate ---- *)

let base_rows =
  [
    Bench.higher "warm_queries_per_sec" ~unit:"1/s" 153731.;
    Bench.lower "latency" ~unit:"us" 100.;
    Bench.higher "warm_speedup_vs_cold" ~unit:"ratio" 22.65;
    Bench.higher "identical" ~unit:"flag" 1.;
    Bench.higher "par_vs_warm" ~unit:"ratio" 1.;
    Bench.higher "batch_vs_single" ~unit:"ratio" 2.;
  ]

let baseline = doc base_rows

let test_gate_higher () =
  let gated = [ "warm_queries_per_sec" ] in
  let run v = doc (with_value base_rows "warm_queries_per_sec" v) in
  let edge = 0.8 *. 153731. in
  Alcotest.(check bool) "equal passes" true
    (passes ~gated ~baseline (run 153731.));
  Alcotest.(check bool) "0.8x passes" true (passes ~gated ~baseline (run edge));
  Alcotest.(check bool) "just below 0.8x fails" false
    (passes ~gated ~baseline (run (Float.pred edge)));
  Alcotest.(check bool) "faster passes" true (passes ~gated ~baseline (run 1e9))

let test_gate_lower () =
  let gated = [ "latency" ] in
  let run v = doc (with_value base_rows "latency" v) in
  Alcotest.(check bool) "1.2x passes" true (passes ~gated ~baseline (run 120.));
  Alcotest.(check bool) "just above 1.2x fails" false
    (passes ~gated ~baseline (run (Float.succ 120.)));
  Alcotest.(check bool) "faster passes" true (passes ~gated ~baseline (run 1.))

(* The suites' floors: admit and serve warm/cold speedups, admit's
   parallel over sequential warm throughput, serve's batch over single. *)
let test_floors () =
  List.iter
    (fun (metric, floor) ->
      let run v = doc (with_value base_rows metric v) in
      let floors = [ (metric, floor) ] in
      Alcotest.(check bool) (metric ^ " at the floor passes") true
        (passes ~floors ~baseline (run floor));
      Alcotest.(check bool) (metric ^ " just below the floor fails") false
        (passes ~floors ~baseline (run (Float.pred floor))))
    [
      ("warm_speedup_vs_cold", 10.);
      ("warm_speedup_vs_cold", 5.);
      ("par_vs_warm", 0.8);
      ("batch_vs_single", 1.);
    ];
  Alcotest.(check bool) "floors need a baseline" true
    (passes ~floors:[ ("warm_speedup_vs_cold", 10.) ]
       (doc (with_value base_rows "warm_speedup_vs_cold" 1.)))

let test_identical () =
  let run = doc (with_value base_rows "identical" 0.) in
  Alcotest.(check bool) "divergence fails without a baseline" false (passes run);
  Alcotest.(check bool) "divergence fails with one" false (passes ~baseline run);
  Alcotest.(check bool) "no identical row is fine" true
    (passes (doc [ Bench.higher "x" ~unit:"1/s" 1. ]))

let test_gate_errors () =
  let gated = [ "warm_queries_per_sec" ] in
  Alcotest.(check bool) "suite mismatch" false
    (passes ~gated ~baseline (doc ~suite:"serve" base_rows));
  Alcotest.(check bool) "metric missing from the run" false
    (passes ~gated ~baseline (doc (List.tl base_rows)));
  Alcotest.(check bool) "metric missing from the baseline" false
    (passes ~gated ~baseline:(doc (List.tl base_rows)) (doc base_rows));
  Alcotest.(check bool) "non-positive baseline" false
    (passes ~gated
       ~baseline:(doc (with_value base_rows "warm_queries_per_sec" 0.))
       (doc base_rows));
  Alcotest.(check bool) "unreadable baseline" true
    (Result.is_error (Bench.read "no-such-baseline.json"))

(* ---- committed baselines (copied next to the test by its dune deps) ---- *)

let test_committed () =
  List.iter
    (fun (suite, gated) ->
      let path = Printf.sprintf "../BENCH_%s.json" suite in
      let t = ok_or_fail (Bench.read path) in
      Alcotest.(check string) (path ^ " suite") suite t.Bench.suite;
      List.iter
        (fun m ->
          Alcotest.(check bool) (path ^ " has " ^ m) true
            (List.exists (fun r -> r.Bench.metric = m) t.Bench.rows))
        gated;
      let text = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string) (path ^ " is in canonical layout") text
        (Bench.to_string t);
      Alcotest.(check bool) (path ^ " passes against itself") true
        (passes ~gated ~baseline:t t))
    [
      ("engine", [ "wheel_events_per_sec" ]);
      ( "admit",
        [ "warm_queries_per_sec"; "warm_speedup_vs_cold"; "par_vs_warm";
          "identical" ] );
      ( "serve",
        [ "warm_queries_per_sec"; "warm_speedup_vs_cold"; "batch_vs_single";
          "identical" ] );
    ]

let suite =
  [
    Alcotest.test_case "write/read round trip" `Quick test_round_trip;
    Alcotest.test_case "malformed lines rejected" `Quick test_malformed;
    Alcotest.test_case "higher-better gate at 0.8x" `Quick test_gate_higher;
    Alcotest.test_case "lower-better gate at 1.2x" `Quick test_gate_lower;
    Alcotest.test_case "speedup floors 10x and 5x" `Quick test_floors;
    Alcotest.test_case "divergence fails" `Quick test_identical;
    Alcotest.test_case "suite/metric mismatch errors" `Quick test_gate_errors;
    Alcotest.test_case "committed baselines" `Quick test_committed;
  ]
