(* Host-speed calibration.

   On a shared host the same simulation can run 35% faster or slower from
   one minute to the next (frequency and neighbours' load). The benchmark
   therefore times a fixed calibration loop beside every unit of work and
   scales the unit's time by [reference_s /. calibration]: the result is
   the unit's time on a host running the calibration loop in
   [reference_s]. The loop is the benchmark's own code, never the
   program's, so a change to the program cannot move it. Its mix (small
   allocations, hashing, a binary heap of timed events, variant dispatch
   over float state) resembles the simulator's host work. In a
   four-minute series of bsp-obs runs on a 2-vCPU Xeon VM, the spread of
   the medians of 15-run windows was 19% raw and 4% scaled by this mix. *)

let reference_s = 0.025

let alloc () =
  let l = ref [] in
  for i = 1 to 400_000 do
    l := (i, i + 1) :: !l;
    if i land 1023 = 0 then l := []
  done;
  List.length !l

let hash () =
  let h = Hashtbl.create 1024 in
  for i = 1 to 100_000 do
    Hashtbl.replace h (i land 4095) i
  done;
  Hashtbl.length h

type ev = { t : float; id : int }

let heap () =
  let h = Array.make 4096 { t = 0.; id = 0 } and n = ref 0 in
  let push e =
    let i = ref !n in
    incr n;
    while !i > 0 && h.((!i - 1) / 2).t > e.t do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- e
  in
  let pop () =
    let top = h.(0) in
    decr n;
    let last = h.(!n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !n then fin := true
      else begin
        let c = if l + 1 < !n && h.(l + 1).t < h.(l).t then l + 1 else l in
        if h.(c).t < last.t then begin
          h.(!i) <- h.(c);
          i := c
        end
        else fin := true
      end
    done;
    h.(!i) <- last;
    top
  in
  let x = ref 12345 in
  let rnd () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    float_of_int !x
  in
  for i = 1 to 64 do
    push { t = rnd (); id = i }
  done;
  let s = ref 0 in
  for _ = 1 to 100_000 do
    let e = pop () in
    s := !s + e.id;
    push { t = e.t +. rnd (); id = e.id }
  done;
  !s

type act = A of int | B of float | C of string

let dispatch () =
  let acts = [| A 1; B 2.0; C "x"; A 3; B 0.5 |] in
  let st = Array.make 64 0. and tot = ref 0. in
  for i = 1 to 700_000 do
    match acts.(i mod 5) with
    | A k -> st.(k land 63) <- st.(k land 63) +. 1.
    | B f -> tot := !tot +. (f *. st.(i land 63))
    | C s -> st.(String.length s) <- 0.
  done;
  int_of_float !tot

let sink = ref 0

(* Seconds one pass of the calibration loop takes now. *)
let measure () =
  let t0 = Hrt_harness.Clock.now () in
  sink := !sink + alloc () + hash () + heap () + dispatch ();
  Hrt_harness.Clock.now () -. t0

(* [seconds] of work scaled to the reference host speed, given the
   calibration times measured just before and just after it. *)
let scale ~before ~after seconds = seconds *. reference_s /. ((before +. after) /. 2.)

(* Print the calibration time now, the median of three passes, as a
   "calib" line. A worker prints it just after the moment that ends a
   set-up sample, so that the set-up time can be scaled like the work:
   set-up is start-up and warming, host work that drifts with the host's
   speed as much as the simulation does. *)
let emit () =
  let s = Util.median (Array.init 3 (fun _ -> measure ())) in
  Json.emit "calib" [ ("s", Json.Num s); ("scale", Json.Num (reference_s /. s)) ]
