open Hrt_engine

let check = Alcotest.(check int64)

let test_units () =
  check "us" 1_000L (Time.us 1);
  check "ms" 1_000_000L (Time.ms 1);
  check "sec" 1_000_000_000L (Time.sec 1);
  check "ns" 17L (Time.ns 17);
  check "negative us" (-2_000L) (Time.us (-2))

let test_arith () =
  check "add" 30L Time.(10L + 20L);
  check "sub" (-10L) Time.(10L - 20L);
  check "mul" 50L Time.(10L * 5);
  check "div" 3L Time.(10L / 3);
  Alcotest.(check bool) "lt" true Time.(1L < 2L);
  Alcotest.(check bool) "le eq" true Time.(2L <= 2L);
  Alcotest.(check bool) "gt" false Time.(1L > 2L);
  Alcotest.(check bool) "ge" true Time.(2L >= 2L)

let test_min_max () =
  check "min" 1L (Time.min 1L 2L);
  check "max" 2L (Time.max 1L 2L);
  check "min neg" (-5L) (Time.min (-5L) 3L)

let test_float_conversions () =
  Alcotest.(check (float 1e-9)) "to_float_us" 1.5 (Time.to_float_us 1_500L);
  Alcotest.(check (float 1e-9)) "to_float_ms" 2.25 (Time.to_float_ms 2_250_000L);
  Alcotest.(check (float 1e-9)) "to_float_s" 0.5 (Time.to_float_s 500_000_000L);
  check "of_float_us rounds" 1_500L (Time.of_float_us 1.5);
  check "of_float_us rounds nearest" 2L (Time.of_float_us 0.0015)

let test_cycles () =
  (* 1.3 GHz: 1000 ns = 1300 cycles exactly. *)
  check "cycles of 1us at 1.3GHz" 1300L (Time.cycles_of_ns ~ghz:1.3 (Time.us 1));
  check "ns of cycles round trip" (Time.us 1)
    (Time.ns_of_cycles ~ghz:1.3 1300L);
  (* Conversion back is conservative: never later (>= requested). *)
  let v = Time.ns_of_cycles ~ghz:1.3 1301L in
  Alcotest.(check bool) "ceil rounding" true Time.(v >= 1001L)

let test_pp () =
  let s v = Format.asprintf "%a" Time.pp v in
  Alcotest.(check string) "ns" "500ns" (s 500L);
  Alcotest.(check string) "us" "12.500us" (s 12_500L);
  Alcotest.(check string) "ms" "3.200ms" (s 3_200_000L);
  Alcotest.(check string) "s" "1.500s" (s 1_500_000_000L)

(* The six operators are primitives so they inline into callers even
   under [-opaque] (see time.mli); as [val]s each one is an out-of-line
   call that boxes its result, and this loop allocates 36 minor words per
   iteration. *)
let test_operators_allocate_nothing () =
  let n = 10_000 in
  let loop () =
    let acc = ref 0L and hits = ref 0 in
    for i = 1 to n do
      let x = Int64.of_int i in
      acc := Time.(!acc + x - 1L);
      if Time.(!acc < x) then incr hits;
      if Time.(!acc <= x) then incr hits;
      if Time.(!acc > x) then incr hits;
      if Time.(!acc >= x) then incr hits
    done;
    !hits + Int64.to_int !acc
  in
  ignore (Sys.opaque_identity (loop ()));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (loop ()));
  let w = (Gc.minor_words () -. w0) /. float_of_int n in
  if w > 0.01 then
    Alcotest.failf "Time operators: %.2f minor words/iteration" w

let edge_int64 =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ Int64.min_int; Int64.max_int; 0L; 1L; -1L ]);
        (1, map Int64.of_int small_signed_int);
        (2, ui64);
      ])

let prop_operators_match_int64 =
  QCheck.Test.make ~name:"Time operators agree with Int64" ~count:1000
    (QCheck.make
       ~print:QCheck.Print.(pair Int64.to_string Int64.to_string)
       QCheck.Gen.(pair edge_int64 edge_int64))
    (fun (a, b) ->
      let c = Int64.compare a b in
      Int64.equal Time.(a + b) (Int64.add a b)
      && Int64.equal Time.(a - b) (Int64.sub a b)
      && Time.(a < b) = (c < 0)
      && Time.(a <= b) = (c <= 0)
      && Time.(a > b) = (c > 0)
      && Time.(a >= b) = (c >= 0))

let suite =
  [
    Alcotest.test_case "unit constructors" `Quick test_units;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "float conversions" `Quick test_float_conversions;
    Alcotest.test_case "cycle conversions" `Quick test_cycles;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    Alcotest.test_case "operators allocate nothing" `Quick
      test_operators_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_operators_match_int64;
  ]
