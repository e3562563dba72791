open Hrt_engine
open Hrt_bsp

let small ?(barrier = true) ?(iters = 60) () =
  { (Bsp.fine_grain ~cpus:8 ~barrier) with Bsp.iters }

let test_completes_all_iterations () =
  let p = small () in
  let r = Bsp.run p Bsp.Aperiodic in
  Alcotest.(check int) "iterations" (8 * 60) r.Bsp.iterations_done;
  Alcotest.(check bool) "nonzero exec" true Time.(r.Bsp.exec_time > 0L);
  Alcotest.(check bool) "aperiodic admits trivially" true r.Bsp.admitted

let test_rt_admitted_and_completes () =
  let p = small () in
  let r =
    Bsp.run p
      (Bsp.Rt { period = Time.us 100; slice = Time.us 80; phase_correction = true })
  in
  Alcotest.(check bool) "admitted" true r.Bsp.admitted;
  Alcotest.(check int) "iterations" (8 * 60) r.Bsp.iterations_done

let test_throttling_monotone () =
  let p = small ~barrier:false () in
  let time u =
    let period = Time.us 100 in
    let slice = Int64.of_float (Int64.to_float period *. u) in
    let r = Bsp.run p (Bsp.Rt { period; slice; phase_correction = true }) in
    Time.to_float_ms r.Bsp.exec_time
  in
  let t30 = time 0.3 and t60 = time 0.6 and t90 = time 0.9 in
  Alcotest.(check bool) "30% slower than 60%" true (t30 > t60 *. 1.3);
  Alcotest.(check bool) "60% slower than 90%" true (t60 > t90 *. 1.2)

let test_barrier_removal_gains () =
  let rt = Bsp.Rt { period = Time.us 100; slice = Time.us 90; phase_correction = true } in
  let wb = Bsp.run (small ~barrier:true ()) rt in
  let nb = Bsp.run (small ~barrier:false ()) rt in
  Alcotest.(check bool) "no-barrier faster" true
    Time.(nb.Bsp.exec_time < wb.Bsp.exec_time)

let test_checksum_deterministic () =
  let p = small () in
  let a = Bsp.run ~seed:5L p Bsp.Aperiodic in
  let b = Bsp.run ~seed:5L p Bsp.Aperiodic in
  Alcotest.(check (float 0.)) "same seed same checksum" a.Bsp.checksum b.Bsp.checksum;
  Alcotest.(check int64) "same exec time" a.Bsp.exec_time b.Bsp.exec_time

let test_work_per_iteration_model () =
  let plat = Hrt_hw.Platform.phi in
  let fine = Bsp.work_per_iteration plat (Bsp.fine_grain ~cpus:8 ~barrier:true) in
  let coarse = Bsp.work_per_iteration plat (Bsp.coarse_grain ~cpus:8 ~barrier:true) in
  Alcotest.(check bool) "fine is microseconds" true
    Time.(fine > Time.us 2 && fine < Time.us 50);
  Alcotest.(check bool) "coarse is ~50x fine" true
    (Int64.to_float coarse /. Int64.to_float fine > 20.)

let test_invalid_params () =
  let rejects what p =
    Alcotest.check_raises what (Invalid_argument ("Bsp.run: " ^ what))
      (fun () -> ignore (Bsp.run p Bsp.Aperiodic))
  in
  rejects "cpus < 1" { (small ()) with Bsp.cpus = 0 };
  (* ne = 0 used to die mid-run with Division_by_zero. *)
  rejects "ne < 1" { (small ()) with Bsp.ne = 0 };
  rejects "nc < 0" { (small ()) with Bsp.nc = -1 };
  rejects "nw < 0" { (small ()) with Bsp.nw = -1 };
  rejects "iters < 0" { (small ()) with Bsp.iters = -1 }

(* The update stage as the formula states it, with both divisions. *)
let update_by_formula domain ~ne ~nw ~my_base ~neighbour_base ~iter =
  for j = 0 to min (ne - 1) 63 do
    let idx = my_base + j in
    domain.(idx) <- (domain.(idx) *. 0.5) +. float_of_int ((iter + j) mod 7)
  done;
  for w = 0 to nw - 1 do
    let idx = neighbour_base + (w mod ne) in
    domain.(idx) <- domain.(idx) +. 1.0
  done

let test_update_step_matches_formula () =
  (* No preset has ne < 64 or nw > ne, so the counters' wrap paths get
     their own cases here; three regions let the ring neighbour wrap. *)
  List.iter
    (fun (ne, nw) ->
      let rng = Random.State.make [| ne; nw |] in
      let init = Array.init (3 * ne) (fun _ -> Random.State.float rng 100.) in
      let a = Array.copy init and b = Array.copy init in
      for iter = 0 to 29 do
        let index = iter mod 3 in
        let my_base = index * ne and neighbour_base = (index + 1) mod 3 * ne in
        Bsp.update_step a ~ne ~nw ~my_base ~neighbour_base ~phase:(iter mod 7);
        update_by_formula b ~ne ~nw ~my_base ~neighbour_base ~iter
      done;
      Array.iteri
        (fun i x ->
          if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
            Alcotest.failf "ne=%d nw=%d: element %d is %h, formula gives %h" ne
              nw i x b.(i))
        a)
    [
      (1, 0); (1, 5); (2, 3); (5, 13); (7, 7); (7, 8); (63, 64); (64, 64);
      (65, 130); (200, 16); (3, 200);
    ]

(* exec_time and checksum bits of short seeded runs, recorded before the
   update stage lost its divisions: every stream and the domain must stay
   bit-identical. The last run has ne < 64 and nw > ne. *)
let test_pinned_runs () =
  let rt =
    Bsp.Rt { period = Time.us 100; slice = Time.us 90; phase_correction = true }
  in
  List.iter
    (fun (name, p, mode, exec, bits) ->
      let r = Bsp.run ~seed:7L p mode in
      Alcotest.(check int64) (name ^ " exec_time") exec r.Bsp.exec_time;
      Alcotest.(check int64)
        (name ^ " checksum bits") bits
        (Int64.bits_of_float r.Bsp.checksum))
    [
      ( "fine rt",
        { (Bsp.fine_grain ~cpus:4 ~barrier:false) with Bsp.iters = 50 },
        rt, 617545L, 0x409940e1c3870e18L );
      ( "fine aperiodic",
        { (Bsp.fine_grain ~cpus:4 ~barrier:true) with Bsp.iters = 50 },
        Bsp.Aperiodic, 891979L, 0x409950d9aa6f3de6L );
      ( "wrapping",
        { Bsp.cpus = 3; ne = 5; nc = 10; nw = 13; iters = 40; barrier = true },
        Bsp.Aperiodic, 445936L, 0x40638f292a514940L );
    ]

let test_exec_time_scales_with_iters () =
  let t iters =
    let r = Bsp.run (small ~barrier:false ~iters ()) Bsp.Aperiodic in
    Time.to_float_ms r.Bsp.exec_time
  in
  let t1 = t 40 and t2 = t 120 in
  Alcotest.(check bool) "3x iterations ~ 3x time" true
    (t2 /. t1 > 2.5 && t2 /. t1 < 3.5)

let test_exec_times_util_constant () =
  (* The Fig 13 invariant at test scale: exec_time * utilization is the
     same across utilizations (coarse grain, where barriers are cheap
     relative to work). *)
  let p = { (Bsp.coarse_grain ~cpus:8 ~barrier:true) with Bsp.iters = 20 } in
  let products =
    List.map
      (fun u ->
        let period = Time.us 500 in
        let slice = Int64.of_float (Int64.to_float period *. u) in
        let r = Bsp.run p (Bsp.Rt { period; slice; phase_correction = true }) in
        Time.to_float_ms r.Bsp.exec_time *. u)
      [ 0.3; 0.5; 0.7; 0.9 ]
  in
  let mn = List.fold_left min (List.hd products) products in
  let mx = List.fold_left max (List.hd products) products in
  Alcotest.(check bool)
    (Printf.sprintf "exec*util constant within 15%% (%.1f..%.1f)" mn mx)
    true
    (mx /. mn < 1.15)

let suite =
  [
    Alcotest.test_case "completes all iterations" `Quick test_completes_all_iterations;
    Alcotest.test_case "rt mode admitted and completes" `Quick test_rt_admitted_and_completes;
    Alcotest.test_case "throttling monotone in utilization" `Quick test_throttling_monotone;
    Alcotest.test_case "barrier removal gains" `Quick test_barrier_removal_gains;
    Alcotest.test_case "checksum deterministic" `Quick test_checksum_deterministic;
    Alcotest.test_case "work/iteration model" `Quick test_work_per_iteration_model;
    Alcotest.test_case "invalid params" `Quick test_invalid_params;
    Alcotest.test_case "exec time scales with iterations" `Quick test_exec_time_scales_with_iters;
    Alcotest.test_case "exec*util constant (Fig 13 invariant)" `Slow test_exec_times_util_constant;
    Alcotest.test_case "update step matches formula" `Quick
      test_update_step_matches_formula;
    Alcotest.test_case "pinned exec time and checksum" `Quick test_pinned_runs;
  ]
