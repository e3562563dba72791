open Hrt_engine
module Bench = Hrt_harness.Bench
module Clock = Hrt_harness.Clock

(* Same corpus shape as Admit_bench: 6-12 tasks over near-harmonic
   periods (252 ms lcm), ~50-90% total utilization — a cold query walks
   thousands of EDF demand points, a warm one is a fingerprint plus a
   lookup. Rendered as protocol spec tokens, since these sets travel the
   wire. *)
let gen_specs ~seed index =
  let palette = [| 500; 600; 700; 800; 900; 1000 |] in
  let rng = Rng.create Int64.(add seed (mul 998_244_353L (of_int index))) in
  let n = 6 + Rng.int rng 7 in
  let target = 0.5 +. (0.4 *. Rng.float rng) in
  let specs =
    List.init n (fun _ ->
        let period_us = palette.(Rng.int rng (Array.length palette)) in
        let share = target /. float_of_int n in
        let slice_us =
          Stdlib.min period_us
            (Stdlib.max 5 (int_of_float (float_of_int period_us *. share)))
        in
        Printf.sprintf "P:%d:%d" period_us slice_us)
  in
  String.concat " " specs

let sock_path =
  let counter = Atomic.make 0 in
  fun () ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hrt-serve-%d-%d.sock" (Unix.getpid ())
         (Atomic.fetch_and_add counter 1))

let fail fmt = Printf.ksprintf failwith fmt

let must = function
  | Ok v -> v
  | Error msg -> fail "bench serve: %s" msg

let verdict_payload = function
  | Protocol.Verdicts _ as r -> Protocol.render_reply r
  | Protocol.Error_reply { code; detail } ->
    fail "bench serve: server error %s: %s" code detail
  | Protocol.Stats_reply _ | Protocol.Draining _ ->
    fail "bench serve: unexpected reply shape"

let stats_field reply key =
  match reply with
  | Protocol.Stats_reply kvs -> (
    match List.assoc_opt key kvs with
    | Some v -> int_of_float v
    | None -> fail "bench serve: stats reply missing %s" key)
  | _ -> fail "bench serve: expected a stats reply"

let measure ?(seed = 42L) ?(batch_size = 32) ~sets ~repeats ~jobs () =
  let corpus = List.init sets (fun i -> "query " ^ gen_specs ~seed i) in
  let path = sock_path () in
  let server =
    Server.create ~socket:path
      { Server.default_config with Server.jobs; max_queue = 4096 }
  in
  let srv_domain = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Domain.join srv_domain;
      if Sys.file_exists path then try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let addr = Client.Unix_path path in
      (* First contact retries with backoff while the server boots. *)
      (match Client.call ~seed addr "stats" with
      | Ok _ -> ()
      | Error msg -> fail "bench serve: server never came up: %s" msg);
      let conn = must (Client.connect addr) in
      Fun.protect
        ~finally:(fun () -> Client.close conn)
        (fun () ->
          let roundtrip payload =
            verdict_payload (must (Client.request conn payload))
          in
          let cold_seconds, cold_replies =
            Clock.timed (fun () -> List.map roundtrip corpus)
          in
          let identical = ref true in
          let warm_total, () =
            Clock.timed (fun () ->
                for _ = 1 to repeats do
                  List.iter2
                    (fun payload expect ->
                      if roundtrip payload <> expect then identical := false)
                    corpus cold_replies
                done)
          in
          (* Batch frames: group the same corpus [batch_size] sets per
             request. *)
          let batches =
            let rec go acc cur n = function
              | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
              | q :: rest ->
                let spec = String.sub q 6 (String.length q - 6) in
                if n + 1 >= batch_size then
                  go (List.rev (spec :: cur) :: acc) [] 0 rest
                else go acc (spec :: cur) (n + 1) rest
            in
            go [] [] 0 corpus
            |> List.map (fun specs -> "batch " ^ String.concat " ; " specs)
          in
          let batch_total, () =
            Clock.timed (fun () ->
                for _ = 1 to repeats do
                  List.iter (fun b -> ignore (roundtrip b)) batches
                done)
          in
          let stats = must (Client.request conn "stats") in
          let shed = stats_field stats "shed" in
          let hits = stats_field stats "hits" in
          let misses = stats_field stats "misses" in
          let qps n seconds =
            if seconds > 0. then float_of_int n /. seconds else 0.
          in
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
            Bench.higher "batch_queries_per_sec" ~unit:"1/s"
              (qps (sets * repeats) batch_total);
            count "batch_size" batch_size;
            Bench.higher "identical" ~unit:"flag"
              (if !identical then 1. else 0.);
            Bench.lower "shed" ~unit:"count" (float_of_int shed);
            count "cache_hits" hits;
            Bench.lower "cache_misses" ~unit:"count" (float_of_int misses);
          ]))
