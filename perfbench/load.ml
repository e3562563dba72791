(* The serving workload, [serve-mixed]: a real admission daemon in its own
   process, driven open-loop by one single-threaded generator process over
   two pipelined Unix-socket connections.

   Mix: 85% [query] of one set drawn uniformly from 512 hot sets (warmed
   before timing), 10% [batch] of 8 hot sets, 5% [query] of a set never
   seen before, which forces a cold [Oracle.analyze]. Latency runs from
   when a request was due to when its reply was decoded, so a stall also
   charges the requests queued behind it. Every reply is checked against
   an in-process [Oracle.analyze] after the timed phases. *)

open Hrt_engine
module Protocol = Hrt_serve.Protocol
module Server = Hrt_serve.Server
module Taskset = Hrt_analysis.Taskset
module Oracle = Hrt_analysis.Oracle
module Service = Hrt_analysis.Service
module Par = Hrt_par.Par
module Clock = Hrt_harness.Clock

let hot_count = 512
let batch_width = 8
let daemon_jobs = 1

(* The daemon's queue: 16,384 requests, 2.7 s of r6k. With the default
   256 (43 ms at 6,000 q/s) a stall of the shared host made the daemon
   shed in some runs and not in others, so the failure count depended on
   the host. A stall now shows as latency, and a phase whose backlog
   builds up is reported invalid (see [summarize]). *)
let daemon_queue = 16_384

let policy = Hrt_core.Config.Edf
let platform = Hrt_hw.Platform.phi

(* Same set shape as Serve_bench.gen_specs: 6-12 periodic tasks over
   near-harmonic periods, 50-90% total utilization. *)
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

(* Cold sets come from an index range the hot sets never use. *)
let cold_base = 1_000_000

type kind = Hot of int | Batch of int array | Cold of int

(* The request stream of one seed: kinds in order, cold sets numbered
   from [cold_base] so no cold set repeats. *)
let stream_kinds ~seed n =
  let rng = Rng.create (Int64.logxor seed 0x5e55_1011L) in
  let cold = ref 0 in
  Array.init n (fun _ ->
      let u = Rng.float rng in
      if u < 0.85 then Hot (Rng.int rng hot_count)
      else if u < 0.95 then Batch (Array.init batch_width (fun _ -> Rng.int rng hot_count))
      else begin
        let c = !cold in
        incr cold;
        Cold (cold_base + c)
      end)

let specs_of_kind ~hot ~seed = function
  | Hot i -> [ hot.(i) ]
  | Batch a -> Array.to_list (Array.map (fun i -> hot.(i)) a)
  | Cold c -> [ gen_specs ~seed c ]

let payload_of_kind ~hot ~seed k =
  match k with
  | Batch _ -> "batch " ^ String.concat " ; " (specs_of_kind ~hot ~seed k)
  | Hot _ | Cold _ -> "query " ^ String.concat " " (specs_of_kind ~hot ~seed k)

let hot_specs ~seed = Array.init hot_count (gen_specs ~seed)

let constraints_of_spec spec =
  List.map
    (fun tok ->
      match Protocol.parse_spec tok with
      | Ok c -> c
      | Error msg -> failwith ("bad generated spec: " ^ msg))
    (String.split_on_char ' ' spec)

(* The reference answer: the daemon's view (production, EDF, Phi) of the
   set, analyzed in-process and folded to its wire form. *)
let reference_verdict spec =
  let ts = Taskset.production_view ~policy ~platform (constraints_of_spec spec) in
  Protocol.verdict_of_oracle (Oracle.analyze ts).Oracle.verdict

let expected_reply ~memo ~hot ~seed k =
  let verdict spec =
    match Hashtbl.find_opt memo spec with
    | Some v -> v
    | None ->
      let v = reference_verdict spec in
      Hashtbl.replace memo spec v;
      v
  in
  Protocol.render_reply
    (Protocol.Verdicts (List.map verdict (specs_of_kind ~hot ~seed k)))

(* ---- daemon ---- *)

let daemon ~socket =
  let t =
    Server.create ~socket
      { Server.default_config with Server.jobs = daemon_jobs; max_queue = daemon_queue }
  in
  Json.emit "ready"
    [
      ("ocaml", Json.Str Sys.ocaml_version);
      ("jobs", Json.Int daemon_jobs);
      ("max_queue", Json.Int daemon_queue);
    ];
  Server.run ~install_sigterm:true t

(* ---- generator ---- *)

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.Decoder.t;
  waiting : int Queue.t;  (* request indices in send order; -1 = stats *)
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
}

let connect ~socket =
  let deadline = Clock.now () +. 10. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () ->
      Unix.set_nonblock fd;
      {
        fd;
        dec = Protocol.Decoder.create ();
        waiting = Queue.create ();
        buf = Bytes.create 65536;
        lo = 0;
        hi = 0;
      }
    | exception Unix.Unix_error _ when Clock.now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let append c s =
  let n = String.length s in
  if c.hi + n > Bytes.length c.buf then begin
    let live = c.hi - c.lo in
    let cap = max (Bytes.length c.buf) (2 * (live + n)) in
    let nb = if cap > Bytes.length c.buf then Bytes.create cap else c.buf in
    Bytes.blit c.buf c.lo nb 0 live;
    c.buf <- nb;
    c.lo <- 0;
    c.hi <- live
  end;
  Bytes.blit_string s 0 c.buf c.hi n;
  c.hi <- c.hi + n

let flush c =
  if c.hi > c.lo then
    match Unix.single_write c.fd c.buf c.lo (c.hi - c.lo) with
    | n ->
      c.lo <- c.lo + n;
      if c.lo = c.hi then begin
        c.lo <- 0;
        c.hi <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let read_buf = Bytes.create 65536

(* Read what is available and hand each decoded reply to [on_reply]. *)
let pump c on_reply =
  match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
    Protocol.Decoder.feed c.dec read_buf 0 n;
    let now = Clock.now_ns () in
    let rec pull () =
      match Protocol.Decoder.next c.dec with
      | `Frame payload ->
        on_reply (Queue.pop c.waiting) payload now;
        pull ()
      | `Await -> ()
      | `Error e -> failwith ("reply framing: " ^ Protocol.describe_error e)
    in
    pull ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

type phase = {
  name : string;
  rate : int;  (** requests per second; 0 = closed loop (warm-up) *)
  kinds : kind array;
  payloads : string array;
  due : int array;  (** ns *)
  sent : int array;
  recv : int array;  (** 0 = no reply *)
  replies : string array;
  outstanding : (int * int) list;  (** (ns since start, sent - received) samples *)
}

let stats_reply = ref None

(* Drive one phase. Open loop: request k is due [k / rate] seconds after
   the start and is sent then, whatever is outstanding. Closed loop
   ([rate = 0]): at most [window] outstanding requests. *)
let run_phase conns ~name ~rate ~window kinds payloads =
  let n = Array.length payloads in
  let due = Array.make n 0 and sent = Array.make n 0 and recv = Array.make n 0 in
  let replies = Array.make n "" in
  let received = ref 0 and next = ref 0 in
  let start = Int64.to_int (Clock.now_ns ()) + 1_000_000 in
  let interval = if rate > 0 then 1e9 /. float_of_int rate else 0. in
  let due_of k = start + int_of_float (float_of_int k *. interval) in
  let on_reply id payload now =
    if id < 0 then stats_reply := Some payload
    else begin
      recv.(id) <- Int64.to_int now;
      replies.(id) <- payload;
      incr received
    end
  in
  let samples = ref [] and next_sample = ref start in
  let give_up = ref (due_of n + 10_000_000_000) in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  let by_fd fd = List.find (fun c -> c.fd == fd) (Array.to_list conns) in
  while !received < n && Int64.to_int (Clock.now_ns ()) < !give_up do
    let now = Int64.to_int (Clock.now_ns ()) in
    if rate = 0 then begin
      give_up := now + 10_000_000_000;
      while !next < n && !next - !received < window do
        let c = conns.(!next land 1) in
        due.(!next) <- now;
        sent.(!next) <- now;
        append c (Protocol.frame payloads.(!next));
        Queue.push !next c.waiting;
        incr next
      done
    end
    else
      while !next < n && due_of !next <= now do
        let c = conns.(!next land 1) in
        due.(!next) <- due_of !next;
        sent.(!next) <- now;
        append c (Protocol.frame payloads.(!next));
        Queue.push !next c.waiting;
        incr next
      done;
    if now >= !next_sample && !next < n then begin
      samples := (now - start, !next - !received) :: !samples;
      next_sample := !next_sample + 50_000_000
    end;
    Array.iter flush conns;
    let writers = List.filter_map (fun c -> if c.hi > c.lo then Some c.fd else None) (Array.to_list conns) in
    let timeout =
      if rate > 0 && !next < n then
        Float.max 0. (float_of_int (due_of !next - Int64.to_int (Clock.now_ns ())) /. 1e9)
      else 0.05
    in
    let readable, writable, _ =
      try Unix.select fds writers [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun fd -> pump (by_fd fd) on_reply) readable;
    List.iter (fun fd -> flush (by_fd fd)) writable
  done;
  { name; rate; kinds; payloads; due; sent; recv; replies; outstanding = List.rev !samples }

(* Ask the daemon for its [stats] line on the first connection. *)
let daemon_stats conns =
  let c = conns.(0) in
  stats_reply := None;
  append c (Protocol.frame "stats");
  Queue.push (-1) c.waiting;
  let deadline = Clock.now () +. 10. in
  while !stats_reply = None && Clock.now () < deadline do
    flush c;
    match Unix.select [ c.fd ] [] [] 0.05 with
    | _ :: _, _, _ -> pump c (fun id p _ -> if id < 0 then stats_reply := Some p)
    | _ -> ()
  done;
  match !stats_reply with
  | None -> failwith "daemon did not answer stats"
  | Some payload -> (
    match Protocol.parse_reply payload with
    | Ok (Protocol.Stats_reply kvs) -> kvs
    | _ -> failwith ("unexpected stats reply: " ^ payload))

let stat kvs key = Option.value ~default:nan (List.assoc_opt key kvs)

(* A reply line's failure class, if any. *)
let failure_of_reply payload =
  if String.equal payload "" then Some "missing"
  else if String.length payload >= 6 && String.sub payload 0 6 = "error " then Some "error"
  else
    let lines = String.split_on_char '\n' payload in
    if List.mem "rejected overloaded" lines then Some "shed"
    else if List.mem "rejected expired" lines then Some "expired"
    else None

(* Mean outstanding over the last quarter of the sending window against
   the first quarter: a backlog that builds up shows as growth. *)
let outstanding_grew samples =
  let n = List.length samples in
  if n < 8 then false
  else
    let arr = Array.of_list (List.map snd samples) in
    let q = n / 4 in
    let mean lo = float_of_int (Array.fold_left ( + ) 0 (Array.sub arr lo q)) /. float_of_int q in
    mean (n - q) > (2. *. mean 0) +. 16.

(* A phase whose generator fell behind measures the generator, not the
   daemon: some request went out so late that the catch-up burst alone
   could fill a daemon's default queue (256 requests at the phase's
   rate). Shorter stalls stay in the latency, which runs from the due
   time, and in [late_p99_us]. *)
let fell_behind p =
  let limit_ns = Server.default_config.Server.max_queue * 1_000_000_000 / max 1 p.rate in
  let late = ref 0 in
  Array.iteri (fun k sent -> late := max !late (sent - p.due.(k))) p.sent;
  p.rate > 0 && !late > limit_ns

type summary = {
  lat : float array;  (** us, due to reply, answered requests only *)
  late : float array;  (** us, due to sent *)
  attempted : int;
  failed : int;
  valid : bool;
  steal : float;  (** share of the host's CPU time stolen during the phase *)
  meets_slo : bool;  (** valid, p99 <= 5 ms and at most 1% failed *)
  json : Json.t;
}

(* The median over one-second windows (by due time) of each window's
   median latency: a slow stretch of the host shorter than half the phase
   moves it less than it moves the median of all requests. *)
let window_median p =
  let t0 = if Array.length p.due > 0 then p.due.(0) else 0 in
  let windows = Hashtbl.create 32 in
  Array.iteri
    (fun k payload ->
      if failure_of_reply payload = None then begin
        let w = (p.due.(k) - t0) / 1_000_000_000 in
        let lat = float_of_int (p.recv.(k) - p.due.(k)) /. 1e3 in
        Hashtbl.replace windows w (lat :: Option.value ~default:[] (Hashtbl.find_opt windows w))
      end)
    p.replies;
  Util.median
    (Array.of_list (Hashtbl.fold (fun _ lats acc -> Util.median (Array.of_list lats) :: acc) windows []))

(* An r6k phase is contended when the hypervisor held back more than 2% of
   the VM's CPU time (steal) during it: on a shared host, 3-5% steal
   raised the median latency by a tenth and 10-15% multiplied it, so such
   a phase measures the host as much as the daemon. At 2,000 q/s the idle
   daemon's own wake-ups accrue steal, so r2k is never marked. *)
let steal_limit = 0.02

let summarize ~daemon_cpu ~stats ~steal p =
  let n = Array.length p.payloads in
  let lat = ref [] and late = ref [] in
  let fails = Hashtbl.create 4 in
  for k = 0 to n - 1 do
    late := (float_of_int (p.sent.(k) - p.due.(k)) /. 1e3) :: !late;
    match failure_of_reply p.replies.(k) with
    | None -> lat := (float_of_int (p.recv.(k) - p.due.(k)) /. 1e3) :: !lat
    | Some cls ->
      Hashtbl.replace fails cls (1 + Option.value ~default:0 (Hashtbl.find_opt fails cls))
  done;
  let lat = Array.of_list !lat and late = Array.of_list !late in
  let failed = Hashtbl.fold (fun _ v acc -> acc + v) fails 0 in
  let late_p99 = Util.percentile late 99. in
  let grew = outstanding_grew p.outstanding in
  (* The stats request is itself in flight while the daemon answers it. *)
  let backlog = stat stats "queue" > 0. || stat stats "inflight" > 1. in
  let fell_behind = fell_behind p in
  let valid = (not fell_behind) && (not grew) && not backlog in
  let lat_p99 = Util.percentile lat 99. in
  let fail_share = float_of_int failed /. float_of_int (max 1 n) in
  let meets_slo = valid && lat_p99 <= 5000. && fail_share <= 0.01 in
  let json =
    Json.Obj
      ([
         ("name", Json.Str p.name);
         ("rate", Json.Int p.rate);
         ("attempted", Json.Int n);
         ("failed", Json.Int failed);
         ("fail_share", Json.Num fail_share);
         ("lat_p50_us", Json.Num (Util.median lat));
         ("lat_window_p50_us", Json.Num (window_median p));
         ("lat_p99_us", Json.Num lat_p99);
         ("lat_count", Json.Int (Array.length lat));
         ("late_p50_us", Json.Num (Util.median late));
         ("late_p99_us", Json.Num late_p99);
         ("late_max_us", Json.Num (Util.percentile late 100.));
         ("fell_behind", Json.Bool fell_behind);
         ("outstanding_grew", Json.Bool grew);
         ("backlog", Json.Bool backlog);
         ("steal_share", Json.Num steal);
         ("host_contended", Json.Bool (p.name = "r6k" && steal > steal_limit));
         ("valid", Json.Bool valid);
         ("meets_slo", Json.Bool meets_slo);
         ("daemon_cpu_s", Json.Num daemon_cpu);
       ]
      @ List.map
          (fun cls -> (cls, Json.Int (Option.value ~default:0 (Hashtbl.find_opt fails cls))))
          [ "shed"; "expired"; "error"; "missing" ]
      @ List.map (fun (k, v) -> ("server_" ^ k, Json.Num v)) stats)
  in
  { lat; late; attempted = n; failed; valid; steal; meets_slo; json }

(* Every reply must equal the in-process oracle's verdicts; a shed or
   expired answer is a failure, not a wrong answer, and is counted as
   such by [summarize]. *)
let verify ~memo ~hot ~seed ~flip phases =
  let wrong = ref 0 and checked = ref 0 in
  List.iter
    (fun p ->
      Array.iteri
        (fun k payload ->
          if failure_of_reply payload = None then begin
            let payload =
              if flip && !checked = 0 then
                (* Self-test: corrupt the first reply's verdict. *)
                if String.length payload > 8 && String.sub payload 0 8 = "admitted" then
                  "rejected utilization"
                else "admitted 0.500000"
              else payload
            in
            incr checked;
            if not (String.equal payload (expected_reply ~memo ~hot ~seed p.kinds.(k))) then
              incr wrong
          end)
        p.replies)
    phases;
  (!checked, !wrong)

(* r6k runs until [r6k_used] phases were valid and quiet, at most
   [r6k_tries] times. Successive phases of one run settled at either of
   two levels about 12% apart (the host, not the program, picks which), so
   a run averages five phases of a fifth of [seconds] rather than two long
   ones. *)
let r6k_used = 5
let r6k_tries = 8
let ladder_rates = [ 8_000; 10_000; 12_000; 14_000; 16_000; 20_000 ]

(* The generator process. [mode]: "warm" stops after warming; "full" runs
   the r6k phases, which carry the end-to-end latency; "trace" runs r2k,
   r6k and the rising-rate ladder for the per-layer metrics. *)
let generate ~socket ~seed ~seconds ~mode ~daemon_pid ~clk_tck ~flip =
  (* A larger minor heap keeps the generator's own collections short. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 20 };
  let conns = [| connect ~socket; connect ~socket |] in
  let hot = hot_specs ~seed in
  let warm_kinds = Array.init hot_count (fun i -> Hot i) in
  let warm_payloads = Array.map (payload_of_kind ~hot ~seed) warm_kinds in
  let warm = run_phase conns ~name:"warm" ~rate:0 ~window:32 warm_kinds warm_payloads in
  Json.emit "warm_done" [ ("daemon_hwm_kb", Json.Int (if daemon_pid > 0 then Util.vm_hwm_kb ~pid:daemon_pid () else 0)) ];
  Calib.emit ();
  if mode <> "warm" then begin
    let traced = mode = "trace" in
    let plan =
      (if traced then [ ("r2k", 2_000, 0.2 *. seconds) ] else [])
      @ List.init r6k_tries (fun _ -> ("r6k", 6_000, 0.2 *. seconds))
      @ if traced then List.map (fun r -> (Printf.sprintf "q%d" r, r, 1.5)) ladder_rates else []
    in
    let total = List.fold_left (fun acc (_, r, d) -> acc + int_of_float (float_of_int r *. d)) 0 plan in
    let kinds = stream_kinds ~seed total in
    let cpu () = Util.proc_cpu_seconds ~pid:daemon_pid ~clk_tck in
    let rec go offset acc = function
      | [] -> List.rev acc
      | (name, rate, dur) :: rest ->
        let n = int_of_float (float_of_int rate *. dur) in
        let kinds = Array.sub kinds offset n in
        let payloads = Array.map (payload_of_kind ~hot ~seed) kinds in
        Gc.full_major ();
        let c0 = cpu () and steal0, total0 = Util.host_ticks () in
        let p = run_phase conns ~name ~rate ~window:max_int kinds payloads in
        let daemon_cpu = cpu () -. c0 in
        let steal1, total1 = Util.host_ticks () in
        let steal_share = (steal1 -. steal0) /. Float.max 1. (total1 -. total0) in
        let s = summarize ~daemon_cpu ~stats:(daemon_stats conns) ~steal:steal_share p in
        Json.emit "phase"
          [ ("phase", s.json); ("daemon_hwm_kb", Json.Int (Util.vm_hwm_kb ~pid:daemon_pid ())) ];
        let acc = (p, s) :: acc in
        let quiet_r6k =
          List.length
            (List.filter (fun (p, s) -> p.name = "r6k" && s.valid && s.steal <= steal_limit) acc)
        in
        let rest = if quiet_r6k >= r6k_used then List.filter (fun (n, _, _) -> n <> "r6k") rest else rest in
        (* The ladder stops at the first rung that misses its limits. *)
        if (not s.meets_slo) && name.[0] = 'q' then List.rev acc else go (offset + n) acc rest
    in
    let results = go 0 [] plan in
    (* The timed phases: invalid phases are reported, not counted. *)
    let timed =
      List.filter (fun (p, s) -> s.valid && (p.name = "r2k" || p.name = "r6k")) results
    in
    let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 timed in
    let late = Array.concat (List.map (fun (_, s) -> s.late) timed) in
    (* The [r6k_used] least contended valid r6k phases carry the latency. *)
    let r6k =
      List.filter (fun (p, _) -> p.name = "r6k") timed
      |> List.stable_sort (fun (_, a) (_, b) -> Float.compare a.steal b.steal)
      |> List.filteri (fun i _ -> i < r6k_used)
    in
    Json.emit "timed"
      [
        ("r6k_valid", Json.Bool (r6k <> []));
        ("r6k_steal_share", Json.Num (List.fold_left (fun acc (_, s) -> Float.max acc s.steal) 0. r6k));
        ("attempted", Json.Int (sum (fun s -> s.attempted)));
        ("failed", Json.Int (sum (fun s -> s.failed)));
        ( "r6k_p50_us",
          Json.Num
            (List.fold_left (fun acc (p, _) -> acc +. window_median p) 0. r6k
            /. float_of_int (List.length r6k)) );
        ("late_p50_us", Json.Num (Util.median late));
        ("late_p99_us", Json.Num (Util.percentile late 99.));
      ];
    let memo = Hashtbl.create 4096 in
    let checked, wrong = verify ~memo ~hot ~seed ~flip (warm :: List.map fst results) in
    let max_qps =
      List.fold_left (fun acc (p, s) -> if s.meets_slo then max acc p.rate else acc) 0 results
    in
    Json.emit "verified"
      [ ("checked", Json.Int checked); ("wrong", Json.Int wrong); ("max_qps", Json.Int max_qps) ]
  end;
  Array.iter (fun c -> Unix.close c.fd) conns

(* ---- traced in-process replay ---- *)

let view cs = Taskset.production_view ~policy ~platform cs

(* Replay the first [n] requests of the seed's stream through the same
   public calls the daemon makes, one span per stage. Cold requests also
   run [Oracle.analyze] on its own, so the analysis cost is measured apart
   from the cache around it; the untraced replay does the same work. *)
(* A service that has analyzed every hot set, as the daemon has once warm. *)
let warmed_service hot =
  let svc = Service.create () in
  Array.iter (fun spec -> ignore (Service.query svc (view (constraints_of_spec spec)))) hot;
  svc

let replay ?spans ~hot ~seed ~memo kinds =
  let svc = warmed_service hot in
  let dec = Protocol.Decoder.create () in
  let wrong = ref 0 in
  let t0 = Clock.now () in
  Array.iteri
    (fun k kind ->
      let frame = Protocol.frame (payload_of_kind ~hot ~seed kind) in
      let rendered =
        Span.maybe spans ~req:k "serve.request" (fun () ->
            let payload =
              Span.maybe spans "serve.protocol.decode" (fun () ->
                  Protocol.Decoder.feed_string dec frame;
                  match Protocol.Decoder.next dec with
                  | `Frame p -> p
                  | _ -> failwith "replay: frame did not decode")
            in
            let sets =
              match Span.maybe spans "serve.protocol.parse" (fun () -> Protocol.parse_request payload) with
              | Ok (Protocol.Query { specs; _ }) -> [ specs ]
              | Ok (Protocol.Batch { sets; _ }) -> sets
              | _ -> failwith "replay: request did not parse"
            in
            let verdicts =
              List.map
                (fun cs ->
                  let ts = Span.maybe spans "analysis.taskset.view" (fun () -> view cs) in
                  ignore (Span.maybe spans "analysis.taskset.fingerprint" (fun () -> Taskset.fingerprint ts));
                  let misses0 = (Service.stats svc).Service.misses in
                  let sp = Option.map (fun s -> Span.enter s "analysis.service.query") spans in
                  let r = Service.query svc ts in
                  let miss = (Service.stats svc).Service.misses > misses0 in
                  (match (spans, sp) with
                  | Some s, Some sp ->
                    Span.leave s sp;
                    Span.rename sp
                      (if miss then "analysis.service.query_miss" else "analysis.service.query_hit")
                  | _ -> ());
                  if miss then
                    ignore (Span.maybe spans "analysis.oracle.analyze" (fun () -> Oracle.analyze ts));
                  Protocol.verdict_of_oracle r.Oracle.verdict)
                sets
            in
            Span.maybe spans "serve.protocol.render" (fun () ->
                Protocol.render_reply (Protocol.Verdicts verdicts)))
      in
      if not (String.equal rendered (expected_reply ~memo ~hot ~seed kind)) then incr wrong)
    kinds;
  (Clock.now () -. t0, !wrong)

(* Service.batch over [frames] at jobs=1 against jobs=2; [fresh] gives
   every frame a new service, so every set is a miss. *)
let batch_speedup ~hot ~frames ~fresh =
  let time jobs =
    let pool = Par.Pool.create ~jobs in
    let shared = if fresh then Service.create () else warmed_service hot in
    fst
      (Clock.timed (fun () ->
           List.iter
             (fun sets ->
               let svc = if fresh then Service.create () else shared in
               ignore (Service.batch ~pool svc sets))
             frames))
  in
  let t1 = Util.median (Array.init 3 (fun _ -> time 1)) in
  let t2 = Util.median (Array.init 3 (fun _ -> time 2)) in
  t1 /. t2

let stage_names =
  [
    "serve.protocol.decode";
    "serve.protocol.parse";
    "analysis.taskset.view";
    "analysis.taskset.fingerprint";
    "analysis.service.query_hit";
    "serve.protocol.render";
    "analysis.service.query_miss";
    "analysis.oracle.analyze";
  ]

let replay_requests = 10_000

(* The serving half of the traced run. *)
let traced ~seed ~spans =
  let hot = hot_specs ~seed in
  let kinds = stream_kinds ~seed replay_requests in
  let memo = Hashtbl.create 4096 in
  (* Fill the reference memo first so both replays do the same work. *)
  Array.iter (fun k -> ignore (expected_reply ~memo ~hot ~seed k)) kinds;
  let plain_s, plain_wrong = replay ~hot ~seed ~memo kinds in
  let traced_s, traced_wrong = replay ~spans ~hot ~seed ~memo kinds in
  let metrics =
    List.concat_map
      (fun stage ->
        let d = Array.of_list (Span.durations_us spans stage) in
        [
          (stage ^ "_p50_us", Util.median d);
          (stage ^ "_p99_us", Util.percentile d 99.);
          (stage ^ "_count", float_of_int (Array.length d));
        ])
      stage_names
  in
  let sets_of k = List.map (fun s -> view (constraints_of_spec s)) (specs_of_kind ~hot ~seed k) in
  let hit_frames =
    Array.to_list kinds |> List.filter_map (function Batch _ as k -> Some (sets_of k) | _ -> None)
  in
  let miss_frames =
    List.init 100 (fun f ->
        List.init batch_width (fun i -> view (constraints_of_spec (gen_specs ~seed (2 * cold_base + (f * batch_width) + i)))))
  in
  let metrics =
    metrics
    @ [
        ("par.batch_speedup.hit", batch_speedup ~hot ~frames:hit_frames ~fresh:false);
        ("par.batch_speedup.miss", batch_speedup ~hot ~frames:miss_frames ~fresh:true);
        ("trace.overhead_ratio.serve-mixed", traced_s /. plain_s);
      ]
  in
  (metrics, [ ("replay_wrong", Json.Int (plain_wrong + traced_wrong)) ])
