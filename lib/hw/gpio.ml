open Hrt_engine

let pins = 8

(* Pins start low and only changes are logged, so a pin's transitions
   alternate: entry [i] of its log is a rise iff [i] is even. The log is
   a growable array of transition times, allocated on a pin's first
   edge: most pins of most machines never toggle. *)
type log = { mutable times : Time.ns array; mutable len : int }

type t = { engine : Engine.t; levels : bool array; logs : log array }

let create engine =
  {
    engine;
    levels = Array.make pins false;
    logs = Array.init pins (fun _ -> { times = [||]; len = 0 });
  }

let check_pin pin =
  if pin < 0 || pin >= pins then invalid_arg "Gpio: pin out of range"

let set t ~pin v =
  check_pin pin;
  if t.levels.(pin) <> v then begin
    t.levels.(pin) <- v;
    let l = t.logs.(pin) in
    if l.len = Array.length l.times then begin
      let times = Array.make (max 64 (2 * l.len)) 0L in
      Array.blit l.times 0 times 0 l.len;
      l.times <- times
    end;
    l.times.(l.len) <- Engine.now t.engine;
    l.len <- l.len + 1
  end

let level t ~pin =
  check_pin pin;
  t.levels.(pin)

let transitions t ~pin =
  check_pin pin;
  let l = t.logs.(pin) in
  Array.init l.len (fun i -> (l.times.(i), i land 1 = 0))

let high_intervals t ~pin =
  check_pin pin;
  let l = t.logs.(pin) in
  Array.init (l.len / 2) (fun k -> (l.times.(2 * k), l.times.((2 * k) + 1)))
