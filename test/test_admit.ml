(* Analytical admission: oracle verdicts + certificates, the memoized
   service, the typed Admission.verdict API, and oracle/simulator
   cross-validation (test-scale corpus; CI runs the full one). *)

open Hrt_engine
open Hrt_core
open Hrt_analysis

let to_alcotest = QCheck_alcotest.to_alcotest

let phi_overhead = Taskset.overhead_of_platform Hrt_hw.Platform.phi

let p ~period_us ~slice_us =
  Constraints.periodic ~period:(Time.us period_us) ~slice:(Time.us slice_us) ()

let production ?(policy = Config.Edf) tasks =
  Taskset.make ~config:{ Config.default with Config.policy }
    ~overhead_ns:phi_overhead tasks

(* Full CPU, zero overhead: rejections here are raw-infeasibility claims. *)
let raw ?(policy = Config.Edf) tasks =
  Taskset.make
    ~config:
      {
        Config.default with
        Config.policy;
        util_limit = 1.0;
        strict_reservations = false;
        sporadic_reservation = 1.0;
      }
    ~overhead_ns:0L tasks

let check_ok name ts r =
  match Oracle.check ts r with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: certificate fails replay: %s" name msg

(* ---- oracle verdicts ---- *)

let test_edf_admit () =
  let ts = production [ p ~period_us:1000 ~slice_us:300; p ~period_us:2000 ~slice_us:400 ] in
  let r = Oracle.analyze ts in
  Alcotest.(check bool) "admitted" true (Admission.admitted r.Oracle.verdict);
  (match r.Oracle.certs with
  | [ Oracle.Edf_demand { horizon; _ } ] ->
    Alcotest.(check int64) "hyperperiod" (Time.ms 2) horizon
  | _ -> Alcotest.fail "expected exactly one EDF demand certificate");
  check_ok "edf admit" ts r

let test_edf_reject () =
  let ts = production [ p ~period_us:100 ~slice_us:90 ] in
  let r = Oracle.analyze ts in
  (match r.Oracle.verdict with
  | Admission.Rejected { reason = Admission.Rejection.Hyperperiod_demand { interval; demand } } ->
    Alcotest.(check int64) "interval" (Time.us 100) interval;
    Alcotest.(check int64) "demand" 99_231L demand
  | v ->
    Alcotest.failf "expected demand rejection, got %s"
      (Format.asprintf "%a" Admission.pp_verdict v));
  Alcotest.(check bool) "exact infeasibility" true (Oracle.exact_infeasible ts r);
  check_ok "edf reject" ts r

(* Harmonic set at 100% utilization: exactly RM-schedulable, above the
   Liu-Layland bound — the oracle admits what the runtime ledger's
   sufficient test refuses. *)
let test_rm_exact_beats_liu_layland () =
  let tasks = [ p ~period_us:100 ~slice_us:50; p ~period_us:200 ~slice_us:100 ] in
  let ts = raw ~policy:Config.Rm tasks in
  let r = Oracle.analyze ts in
  Alcotest.(check bool) "oracle admits" true (Admission.admitted r.Oracle.verdict);
  (match r.Oracle.certs with
  | [ Oracle.Rm_points responses ] ->
    Alcotest.(check int) "one point per task" 2 (List.length responses)
  | _ -> Alcotest.fail "expected RM scheduling-point certificate");
  check_ok "rm exact" ts r;
  let ledger =
    Admission.create
      { Config.default with Config.policy = Config.Rm; util_limit = 1.0;
        strict_reservations = false }
  in
  let admit_one c =
    Admission.request ledger ~now:0L ~old_constr:(Constraints.aperiodic ()) c
  in
  ignore (admit_one (List.nth tasks 0));
  match admit_one (List.nth tasks 1) with
  | Admission.Rejected { reason = Admission.Rejection.Utilization_bound _ } -> ()
  | v ->
    Alcotest.failf "ledger should reject above Liu-Layland, got %s"
      (Format.asprintf "%a" Admission.pp_verdict v)

let test_rm_blocking () =
  let ts = raw ~policy:Config.Rm [ p ~period_us:10 ~slice_us:6; p ~period_us:14 ~slice_us:7 ] in
  let r = Oracle.analyze ts in
  Alcotest.(check bool) "rejected" false (Admission.admitted r.Oracle.verdict);
  (match r.Oracle.certs with
  | [ Oracle.Rm_blocking { period; chain; _ } ] ->
    Alcotest.(check int64) "blocked task" (Time.us 14) period;
    Alcotest.(check int) "one blocking link" 1 (List.length chain)
  | _ -> Alcotest.fail "expected RM blocking certificate");
  Alcotest.(check bool) "exact infeasibility" true (Oracle.exact_infeasible ts r);
  check_ok "rm blocking" ts r

let test_sporadic_density () =
  let s size_us deadline_us =
    Constraints.sporadic ~size:(Time.us size_us) ~deadline:(Time.us deadline_us) ()
  in
  let fits = production [ s 90 1000 ] in
  let r = Oracle.analyze fits in
  Alcotest.(check bool) "9% density fits" true (Admission.admitted r.Oracle.verdict);
  check_ok "density fits" fits r;
  let over = production [ s 90 1000; s 50 1000 ] in
  let r = Oracle.analyze over in
  (match r.Oracle.verdict with
  | Admission.Rejected { reason = Admission.Rejection.Density_bound _ } -> ()
  | _ -> Alcotest.fail "expected density rejection");
  Alcotest.(check bool) "density is sufficient-only" false
    (Oracle.exact_infeasible over r);
  check_ok "density over" over r

let test_structural_rejection () =
  let ts = production [ Constraints.periodic ~period:(Time.us 10) ~slice:(Time.us 11) () ] in
  let r = Oracle.analyze ts in
  (match r.Oracle.verdict with
  | Admission.Rejected { reason = Admission.Rejection.Invalid _ } -> ()
  | _ -> Alcotest.fail "expected structural rejection");
  Alcotest.(check int) "no certificates" 0 (List.length r.Oracle.certs);
  check_ok "structural" ts r

(* ---- certificate tampering: the checker must refuse ---- *)

let test_check_rejects_tampering () =
  let ts = production [ p ~period_us:1000 ~slice_us:300 ] in
  let r = Oracle.analyze ts in
  check_ok "clean" ts r;
  let tampered_cert =
    match r.Oracle.certs with
    | [ Oracle.Edf_demand { horizon; interval; demand } ] ->
      [ Oracle.Edf_demand { horizon; interval; demand = Time.(demand + 1L) } ]
    | _ -> Alcotest.fail "expected EDF certificate"
  in
  (match Oracle.check ts { r with Oracle.certs = tampered_cert } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "tampered demand must not replay");
  let flipped =
    {
      r with
      Oracle.verdict =
        Admission.Rejected
          {
            reason =
              Admission.Rejection.Hyperperiod_demand
                { interval = Time.us 1000; demand = 0L };
          };
    }
  in
  match Oracle.check ts flipped with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "flipped verdict must not replay"

(* ---- golden verdicts: the Fig 6-9 feasibility edge on Phi ---- *)

(* Single periodic task at 50% slice across the Fig 6 period grid, under
   the production view (79% capacity, Phi's 9231ns per-arrival charge).
   The paper's observed edge: periods at and below ~30us are infeasible
   purely from scheduler overhead; 40us and up clear it. *)
let test_golden_feasibility_edge () =
  let golden =
    [
      (1000, "admitted (headroom 0.280769)");
      (100, "admitted (headroom 0.197690)");
      (50, "admitted (headroom 0.105380)");
      (40, "admitted (headroom 0.059225)");
      (30, "rejected: demand 24231ns exceeds supply in interval [0,30000ns]");
      (20, "rejected: demand 19231ns exceeds supply in interval [0,20000ns]");
      (10, "rejected: demand 14231ns exceeds supply in interval [0,10000ns]");
    ]
  in
  List.iter
    (fun (period_us, expect) ->
      let ts = production [ p ~period_us ~slice_us:(period_us / 2) ] in
      let r = Oracle.analyze ts in
      Alcotest.(check string)
        (Printf.sprintf "period %dus" period_us)
        expect
        (Format.asprintf "%a" Admission.pp_verdict r.Oracle.verdict);
      check_ok "golden" ts r)
    golden

(* ---- taskset canonicalization ---- *)

let test_fingerprint_permutation () =
  let a = p ~period_us:100 ~slice_us:20 in
  let b = p ~period_us:200 ~slice_us:50 in
  let c = p ~period_us:500 ~slice_us:100 in
  let f tasks = Taskset.fingerprint (production tasks) in
  Alcotest.(check string) "permutation invariant" (f [ a; b; c ]) (f [ c; a; b ]);
  Alcotest.(check bool) "different set differs" true (f [ a; b ] <> f [ a; c ]);
  let g policy = Taskset.fingerprint (production ~policy [ a; b ]) in
  Alcotest.(check bool) "policy is part of the key" true
    (g Config.Edf <> g Config.Rm)

(* Changing one analysis-relevant field alone changes the key. Each
   entry is a field and the edits to try on the base set. *)
let key_base =
  production [ p ~period_us:100 ~slice_us:20; p ~period_us:200 ~slice_us:50 ]

let with_config f =
  Taskset.make ~config:(f key_base.Taskset.config)
    ~overhead_ns:key_base.Taskset.overhead_ns key_base.Taskset.tasks

let key_fields =
  let d = Config.default in
  [
    ("policy", [ with_config (fun c -> { c with Config.policy = Config.Rm }) ]);
    ( "admission",
      [ with_config (fun c -> { c with Config.admission = Config.Hyperperiod_sim }) ] );
    (* 0.99 and 0.99 + 4e-10 print alike under %.9f, which the text key
       used; the binary key tells them apart. *)
    ( "util_limit",
      List.map
        (fun v -> with_config (fun c -> { c with Config.util_limit = v }))
        [ 0.5; d.Config.util_limit +. 4e-10 ] );
    ( "sporadic_reservation",
      [ with_config (fun c -> { c with Config.sporadic_reservation = 0.2 }) ] );
    ( "aperiodic_reservation",
      [ with_config (fun c -> { c with Config.aperiodic_reservation = 0.2 }) ] );
    ( "admission_control",
      [ with_config (fun c -> { c with Config.admission_control = false }) ] );
    ( "strict_reservations",
      [ with_config (fun c -> { c with Config.strict_reservations = false }) ] );
    ( "min_period",
      [ with_config (fun c -> { c with Config.min_period = Time.us 3 }) ] );
    ( "min_slice",
      [ with_config (fun c -> { c with Config.min_slice = Time.ns 600 }) ] );
    ( "overhead_ns",
      [
        Taskset.make ~config:key_base.Taskset.config
          ~overhead_ns:(Int64.succ phi_overhead) key_base.Taskset.tasks;
      ] );
  ]

let test_key_field edits () =
  let base = Taskset.fingerprint key_base in
  List.iter
    (fun ts ->
      Alcotest.(check bool) "field is part of the key" true
        (Taskset.fingerprint ts <> base))
    edits

(* Fields no analysis reads stay out of the key, and the key is a raw
   16-byte digest. *)
let test_key_ignores () =
  let f tasks = Taskset.fingerprint (production tasks) in
  let per = p ~period_us:300 ~slice_us:40 in
  Alcotest.(check string) "aperiodic priority"
    (f [ per; Constraints.aperiodic ~prio:0 () ])
    (f [ per; Constraints.aperiodic ~prio:7 () ]);
  Alcotest.(check string) "periodic phase" (f [ per ])
    (f
       [
         Constraints.periodic ~phase:(Time.us 37) ~period:(Time.us 300)
           ~slice:(Time.us 40) ();
       ]);
  let spor ~phase ~deadline =
    Constraints.sporadic ~phase:(Time.us phase) ~size:(Time.us 50)
      ~deadline:(Time.us deadline) ()
  in
  Alcotest.(check string) "sporadic (phase, deadline) shift"
    (f [ per; spor ~phase:100 ~deadline:400 ])
    (f [ per; spor ~phase:350 ~deadline:650 ]);
  Alcotest.(check bool) "a different sporadic window differs" true
    (f [ per; spor ~phase:100 ~deadline:400 ]
    <> f [ per; spor ~phase:100 ~deadline:401 ]);
  Alcotest.(check int) "16-byte key" 16 (String.length (f [ per ]))

let gen_task =
  QCheck.Gen.(
    oneof
      [
        map (fun prio -> Constraints.aperiodic ~prio ()) (int_bound 9);
        map2
          (fun period_us slice_us ->
            p ~period_us:(period_us + 1) ~slice_us:(1 + (slice_us mod (period_us + 1))))
          (int_bound 999) (int_bound 999);
        map3
          (fun phase size lax ->
            Constraints.sporadic ~phase:(Time.us phase) ~size:(Time.us (size + 1))
              ~deadline:(Time.us (phase + size + 1 + lax)) ())
          (int_bound 500) (int_bound 100) (int_bound 500);
      ])

let prop_key_permutation =
  QCheck.Test.make ~name:"fingerprint permutation invariant" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 12) gen_task >>= fun tasks ->
         map (fun perm -> (tasks, perm)) (shuffle_l tasks)))
    (fun (tasks, perm) ->
      Taskset.fingerprint (production tasks)
      = Taskset.fingerprint (production perm))

(* ---- service cache ---- *)

let corpus ~n ~seed =
  let rng = Rng.create seed in
  List.init n (fun i ->
      let tasks =
        List.init
          (1 + Rng.int rng 3)
          (fun _ ->
            let period_us = 50 + Rng.int rng 950 in
            let slice_us = 1 + Rng.int rng (period_us / 2) in
            p ~period_us ~slice_us)
      in
      production ~policy:(if i mod 2 = 0 then Config.Edf else Config.Rm) tasks)

let test_cache_warm_equals_cold () =
  let svc = Service.create () in
  let ts = production [ p ~period_us:100 ~slice_us:30; p ~period_us:250 ~slice_us:50 ] in
  let cold = Service.query svc ts in
  let warm = Service.query svc ts in
  Alcotest.(check bool) "identical result" true (cold = warm);
  let s = Service.stats svc in
  Alcotest.(check int) "one miss" 1 s.Service.misses;
  Alcotest.(check int) "one hit" 1 s.Service.hits;
  (* A permutation of the same multiset is a hit, not a new analysis. *)
  let permuted =
    production [ p ~period_us:250 ~slice_us:50; p ~period_us:100 ~slice_us:30 ]
  in
  let r = Service.query svc permuted in
  Alcotest.(check bool) "permutation served from cache" true (r = cold);
  Alcotest.(check int) "still one miss" 1 (Service.stats svc).Service.misses

let test_cache_eviction_fifo () =
  let svc = Service.create ~shards:1 ~capacity:2 () in
  let sets = corpus ~n:3 ~seed:7L in
  List.iter (fun ts -> ignore (Service.query svc ts)) sets;
  let s = Service.stats svc in
  Alcotest.(check int) "third insert evicts the first" 1 s.Service.evictions;
  Alcotest.(check int) "population capped" 2 s.Service.entries;
  ignore (Service.query svc (List.hd sets));
  Alcotest.(check int) "evicted entry re-analyzed" 4
    (Service.stats svc).Service.misses

let test_batch_jobs_identical () =
  let sets = corpus ~n:40 ~seed:11L in
  let seq = Service.batch (Service.create ()) sets in
  let pool = Hrt_par.Par.Pool.create ~jobs:4 in
  let par = Service.batch ~pool (Service.create ()) sets in
  Alcotest.(check bool) "jobs=1 and jobs=4 byte-identical" true (seq = par);
  (* Re-batching the same corpus is all hits and returns the same list. *)
  let svc = Service.create () in
  let first = Service.batch svc sets in
  let second = Service.batch ~pool svc sets in
  Alcotest.(check bool) "warm batch identical" true (first = second);
  let s = Service.stats svc in
  Alcotest.(check int) "second pass all hits" (List.length sets) s.Service.hits

(* Regression: two domains missing the same fingerprint used to both run
   Oracle.analyze and both count a miss (and both insert, leaving two
   eviction-queue entries for one key). Single-flight collapses the race:
   exactly one analysis, one miss, one entry, one eviction slot — however
   many domains hammer the key. *)
let test_cache_single_flight () =
  let ts =
    production [ p ~period_us:700 ~slice_us:180; p ~period_us:900 ~slice_us:200 ]
  in
  let domains = 4 and rounds = 8 in
  let svc = Service.create ~shards:1 ~capacity:2 () in
  let gate = Atomic.make 0 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr gate;
            while Atomic.get gate < domains do
              Domain.cpu_relax ()
            done;
            List.init rounds (fun _ -> Service.query svc ts)))
  in
  let results = List.concat_map Domain.join workers in
  let expect = List.hd results in
  List.iter
    (fun r -> Alcotest.(check bool) "all domains same result" true (r = expect))
    results;
  let s = Service.stats svc in
  Alcotest.(check int) "exactly one analysis ran" 1 s.Service.misses;
  Alcotest.(check int) "every other query is a hit"
    ((domains * rounds) - 1)
    s.Service.hits;
  Alcotest.(check int) "one cache entry" 1 s.Service.entries;
  (* One eviction-queue slot for the hammered key: at capacity 2, two more
     distinct inserts evict it exactly once (a double insert would leave a
     second queue entry and evict twice). *)
  List.iter
    (fun other -> ignore (Service.query svc other))
    (corpus ~n:2 ~seed:21L);
  Alcotest.(check int) "hammered key held one eviction slot" 1
    (Service.stats svc).Service.evictions

(* The single-flight accounting makes cache stats independent of the job
   count: a corpus with duplicates sees the same hit/miss totals at
   jobs=1 and jobs=4. *)
let test_cache_stats_job_invariant () =
  let base = corpus ~n:12 ~seed:17L in
  let sets = base @ base @ base in
  let run jobs =
    let svc = Service.create () in
    let results =
      if jobs > 1 then
        Service.batch ~pool:(Hrt_par.Par.Pool.create ~jobs) svc sets
      else Service.batch svc sets
    in
    (results, Service.stats svc)
  in
  let r1, s1 = run 1 in
  let r4, s4 = run 4 in
  Alcotest.(check bool) "results identical" true (r1 = r4);
  Alcotest.(check int) "same misses" s1.Service.misses s4.Service.misses;
  Alcotest.(check int) "same hits" s1.Service.hits s4.Service.hits;
  Alcotest.(check int) "same entries" s1.Service.entries s4.Service.entries

(* A batch of warm hits, distinct misses, and one new set twice: hits are
   answered on the caller, the misses fan out, and the repeat counts a
   hit — identically at every job count. *)
let test_batch_mixed_job_invariant () =
  let warm = corpus ~n:6 ~seed:31L in
  let fresh = corpus ~n:4 ~seed:37L in
  let twice =
    production [ p ~period_us:640 ~slice_us:90; p ~period_us:880 ~slice_us:150 ]
  in
  let nth = List.nth in
  let mix =
    [ nth warm 0; nth fresh 0; twice; nth warm 1; nth fresh 1; nth warm 2;
      twice; nth fresh 2; nth warm 3; nth fresh 3; nth warm 4; nth warm 5 ]
  in
  let expect = List.map Oracle.analyze mix in
  let run jobs =
    let svc = Service.create () in
    ignore (Service.batch svc warm);
    let results =
      Service.batch ~pool:(Hrt_par.Par.Pool.create ~jobs) svc mix
    in
    (results, Service.stats svc)
  in
  List.iter
    (fun jobs ->
      let results, s = run jobs in
      let name what = Printf.sprintf "jobs=%d %s" jobs what in
      Alcotest.(check bool) (name "results in order") true (results = expect);
      Alcotest.(check int) (name "misses: warm-up, fresh, twice") 11
        s.Service.misses;
      Alcotest.(check int) (name "hits: warm sets and the repeat") 7
        s.Service.hits;
      Alcotest.(check int) (name "entries") 11 s.Service.entries)
    [ 1; 2; 4 ]

let test_service_probes () =
  let sink = Hrt_obs.Sink.create ~trace:false () in
  let svc = Service.create () in
  Service.register_probes svc sink;
  ignore (Service.batch svc (corpus ~n:4 ~seed:3L));
  Hrt_obs.Sink.sample_probes sink;
  let rows = Hrt_obs.Metrics.rows (Hrt_obs.Sink.metrics sink) in
  List.iter
    (fun name ->
      if not (List.exists (List.mem name) rows) then
        Alcotest.failf "probe %s not exported" name)
    [ "admit.cache.hits"; "admit.cache.misses"; "admit.cache.evictions";
      "admit.cache.entries" ]

(* ---- typed verdict API ---- *)

let test_verdict_api () =
  let adm h = Admission.Admitted { headroom = h } in
  let rej =
    Admission.Rejected
      { reason = Admission.Rejection.Overload_shed { boundary = 2 } }
  in
  Alcotest.(check bool) "rejection wins" false
    (Admission.admitted (Admission.worse (adm 0.5) rej));
  (match Admission.worse (adm 0.5) (adm 0.2) with
  | Admission.Admitted { headroom } ->
    Alcotest.(check (float 1e-9)) "smaller headroom wins" 0.2 headroom
  | _ -> Alcotest.fail "two admissions combine to an admission");
  Alcotest.(check (option (float 1e-9))) "headroom of admission" (Some 0.3)
    (Admission.headroom (adm 0.3));
  Alcotest.(check (option (float 1e-9))) "headroom of rejection" None
    (Admission.headroom rej)

(* The Obs admission event and downstream dashboards key on these tags:
   renaming one is a compatibility break and must be deliberate. *)
let test_rejection_names_stable () =
  let open Admission.Rejection in
  let cases =
    [
      (Invalid { msg = "x" }, "invalid");
      (Granularity { period = 1L; slice = 1L }, "granularity");
      (Utilization_bound { util = 1.; bound = 0.79 }, "utilization-bound");
      (Density_bound { density = 1.; bound = 0.099 }, "density-bound");
      (Hyperperiod_demand { interval = 1L; demand = 2L }, "hyperperiod-demand");
      (Past_deadline { arrival = 2L; deadline = 1L }, "past-deadline");
      (Overload_shed { boundary = 1 }, "overload-shed");
    ]
  in
  List.iter
    (fun (reason, expect) ->
      Alcotest.(check string) expect expect (name reason))
    cases

(* ---- randomized properties ---- *)

(* Any task set the generator can produce — feasible, infeasible, mixed
   sporadics, either policy, either capacity view — yields a result whose
   certificate replays through the independent checker. *)
let prop_certificates_replay =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* raw_view = bool in
      let* policy = oneofl [ Config.Edf; Config.Rm ] in
      let* tasks =
        list_size (return n)
          (let* sporadic = frequency [ (4, return false); (1, return true) ] in
           if sporadic then
             let* size_us = int_range 1 200 in
             let* deadline_us = int_range 100 2000 in
             return
               (Constraints.sporadic ~size:(Time.us size_us)
                  ~deadline:(Time.us deadline_us) ())
           else
             let* period_us = oneofl [ 10; 20; 50; 100; 250; 500; 1000 ] in
             let* slice_pct = int_range 1 99 in
             return (p ~period_us ~slice_us:(Stdlib.max 1 (period_us * slice_pct / 100))))
      in
      return (if raw_view then raw ~policy tasks else production ~policy tasks))
  in
  QCheck.Test.make ~name:"oracle certificates replay" ~count:300
    (QCheck.make gen) (fun ts ->
      match Oracle.check ts (Oracle.analyze ts) with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_reportf "certificate replay: %s" msg)

(* Oracle/simulator/ledger agreement corridor, both policies. The CI
   `admit` job runs the 200-set corpus; this keeps a smaller one in every
   `dune runtest`. *)
let test_cross_validation policy () =
  let ctx = Hrt_harness.Exp.Ctx.make ~policy () in
  let o = Hrt_harness.Admit_xval.run ~ctx ~sets:20 ~policy () in
  Alcotest.(check (list string)) "no disagreements" [] o.Hrt_harness.Admit_xval.disagreements;
  Alcotest.(check bool) "corpus straddles the edge" true
    (o.Hrt_harness.Admit_xval.admitted > 0 && o.Hrt_harness.Admit_xval.infeasible > 0)

let suite =
  [
    Alcotest.test_case "EDF admit + certificate" `Quick test_edf_admit;
    Alcotest.test_case "EDF reject + witness" `Quick test_edf_reject;
    Alcotest.test_case "RM exact beats Liu-Layland" `Quick
      test_rm_exact_beats_liu_layland;
    Alcotest.test_case "RM blocking chain" `Quick test_rm_blocking;
    Alcotest.test_case "sporadic density" `Quick test_sporadic_density;
    Alcotest.test_case "structural rejection" `Quick test_structural_rejection;
    Alcotest.test_case "checker rejects tampering" `Quick
      test_check_rejects_tampering;
    Alcotest.test_case "golden Fig 6-9 feasibility edge" `Quick
      test_golden_feasibility_edge;
    Alcotest.test_case "fingerprint canonicalization" `Quick
      test_fingerprint_permutation;
  ]
  @ List.map
      (fun (field, edits) ->
        Alcotest.test_case ("key includes " ^ field) `Quick
          (test_key_field edits))
      key_fields
  @ [
    Alcotest.test_case "key ignores phase and priority" `Quick test_key_ignores;
    to_alcotest prop_key_permutation;
    Alcotest.test_case "cache warm equals cold" `Quick
      test_cache_warm_equals_cold;
    Alcotest.test_case "cache eviction FIFO" `Quick test_cache_eviction_fifo;
    Alcotest.test_case "batch jobs=1 vs jobs=4" `Quick test_batch_jobs_identical;
    Alcotest.test_case "cache single-flight" `Quick test_cache_single_flight;
    Alcotest.test_case "cache stats job-invariant" `Quick
      test_cache_stats_job_invariant;
    Alcotest.test_case "mixed batch job-invariant" `Quick
      test_batch_mixed_job_invariant;
    Alcotest.test_case "cache probes exported" `Quick test_service_probes;
    Alcotest.test_case "verdict combine API" `Quick test_verdict_api;
    Alcotest.test_case "rejection names stable" `Quick
      test_rejection_names_stable;
    to_alcotest prop_certificates_replay;
    Alcotest.test_case "cross-validation EDF" `Slow
      (test_cross_validation Config.Edf);
    Alcotest.test_case "cross-validation RM" `Slow
      (test_cross_validation Config.Rm);
  ]
