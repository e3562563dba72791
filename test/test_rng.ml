open Hrt_engine

let test_determinism () =
  let a = Rng.create 7L and b = Rng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next a) (Rng.next b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 7L and b = Rng.create 8L in
  Alcotest.(check bool) "different seeds differ" true (Rng.next a <> Rng.next b)

let test_split_independence () =
  let a = Rng.create 7L in
  let c = Rng.split a in
  let v1 = Rng.next c in
  (* Drawing more from the parent does not perturb the child's past. *)
  let a2 = Rng.create 7L in
  let c2 = Rng.split a2 in
  ignore (Rng.next a2);
  Alcotest.(check int64) "split stream stable" v1 (Rng.next c2 |> fun _ -> v1);
  Alcotest.(check int64) "child reproducible" v1
    (let a3 = Rng.create 7L in
     Rng.next (Rng.split a3))

let test_float_range () =
  let r = Rng.create 11L in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_int_range () =
  let r = Rng.create 13L in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10);
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all values reachable" true
    (Array.for_all Fun.id seen)

let test_int_invalid () =
  let r = Rng.create 1L in
  Alcotest.check_raises "n=0 rejected" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int r 0))

let test_range_ns () =
  let r = Rng.create 17L in
  for _ = 1 to 1000 do
    let x = Rng.range_ns r 100L 200L in
    Alcotest.(check bool) "in [lo,hi)" true Time.(x >= 100L && x < 200L)
  done;
  Alcotest.check_raises "empty range rejected"
    (Invalid_argument "Rng.range_ns") (fun () ->
      ignore (Rng.range_ns r 5L 5L))

(* Regression for the modulo-bias fix: reducing 63 random bits with a
   plain [mod] gives the low end of a large span extra weight. For
   span = 3 * 2^61, bits in [0, 2^61) and [span, 2^63) both map onto
   [0, 2^61), so the biased probability of landing in the lowest third
   is 1/2 instead of 1/3 — a ~60-sigma signal at 30k draws. Rejection
   sampling restores the uniform 1/3. *)
let test_range_ns_unbiased () =
  let span = Int64.shift_left 3L 61 in
  let third = Int64.shift_left 1L 61 in
  let r = Rng.create 31L in
  let n = 30_000 in
  let low = ref 0 in
  for _ = 1 to n do
    let x = Rng.range_ns r 0L span in
    if not Time.(x >= 0L && x < span) then Alcotest.fail "out of range";
    if Int64.compare x third < 0 then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "lowest third ~ 1/3, got %.3f" frac)
    true
    (frac > 0.30 && frac < 0.37)

(* Same property through [Rng.int]: n = 3 * 2^60 makes the biased
   probability of the lowest third 0.375 (three full copies of the span
   fit in 2^63 plus a partial fourth), ~15 sigma away from 1/3. *)
let test_int_unbiased () =
  let n_span = 3 * (1 lsl 60) in
  let third = 1 lsl 60 in
  let r = Rng.create 37L in
  let n = 30_000 in
  let low = ref 0 in
  for _ = 1 to n do
    let x = Rng.int r n_span in
    if not (x >= 0 && x < n_span) then Alcotest.fail "out of range";
    if x < third then incr low
  done;
  let frac = float_of_int !low /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "lowest third ~ 1/3, got %.3f" frac)
    true
    (frac > 0.30 && frac < 0.36)

let test_gaussian_moments () =
  let r = Rng.create 23L in
  let n = 20_000 in
  let sum = ref 0. and sq = ref 0. in
  for _ = 1 to n do
    let x = Rng.gaussian r ~mu:10. ~sigma:2. in
    sum := !sum +. x;
    sq := !sq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check (float 0.1)) "mean ~ 10" 10. mean;
  Alcotest.(check (float 0.3)) "variance ~ 4" 4. var

let test_exponential_mean () =
  let r = Rng.create 29L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    let x = Rng.exponential r ~mean:50. in
    Alcotest.(check bool) "positive" true (x >= 0.);
    sum := !sum +. x
  done;
  Alcotest.(check (float 2.0)) "mean ~ 50" 50. (!sum /. float_of_int n)

(* The stream is pinned bit for bit: every seeded experiment replays it,
   so a change to the state representation or the draw helpers must not
   move a single draw. Values recorded from the boxed-state generator. *)
let test_pinned_stream () =
  let r = Rng.create 42L in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "next" (-4767286540954276203L) (Rng.next r);
  Alcotest.(check int64) "float" 4594929399376720760L (bits (Rng.float r));
  Alcotest.(check int64) "gaussian" 4658227101282856271L
    (bits (Rng.gaussian r ~mu:3000. ~sigma:300.));
  Alcotest.(check int64) "exponential" 4625294454681313072L
    (bits (Rng.exponential r ~mean:5.));
  Alcotest.(check int) "int" 531 (Rng.int r 1000);
  let plat = Hrt_hw.Platform.phi in
  Alcotest.(check int64) "Platform.sample" 2434L
    (Hrt_hw.Platform.sample plat r plat.Hrt_hw.Platform.sched_pass);
  Alcotest.(check int64) "next after" 6270620877612482005L (Rng.next r)

(* A cost draw allocates only what crosses module boundaries boxed: the
   mean and sigma handed to [Rng.gaussian], its result, and the returned
   [Time.ns]. That is 9 words on OCaml 5.1; the bound leaves room for
   other compilers, well under the boxed-state generator's 29. *)
let test_sample_allocation () =
  let plat = Hrt_hw.Platform.phi in
  let r = Rng.create 5L in
  let n = 10_000 in
  let draw () =
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Hrt_hw.Platform.sample plat r plat.Hrt_hw.Platform.sched_pass))
    done
  in
  draw ();
  let w0 = Gc.minor_words () in
  draw ();
  let w = (Gc.minor_words () -. w0) /. float_of_int n in
  if w > 12. then Alcotest.failf "Platform.sample: %.2f minor words/draw" w

let suite =
  [
    Alcotest.test_case "pinned stream" `Quick test_pinned_stream;
    Alcotest.test_case "cost draw allocation" `Quick test_sample_allocation;
    Alcotest.test_case "determinism per seed" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "float in [0,1)" `Quick test_float_range;
    Alcotest.test_case "int range and coverage" `Quick test_int_range;
    Alcotest.test_case "int rejects n<=0" `Quick test_int_invalid;
    Alcotest.test_case "range_ns bounds" `Quick test_range_ns;
    Alcotest.test_case "range_ns modulo-bias regression" `Quick
      test_range_ns_unbiased;
    Alcotest.test_case "int modulo-bias regression" `Quick test_int_unbiased;
    Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
  ]
