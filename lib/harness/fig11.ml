open Hrt_engine
open Hrt_core
open Hrt_stats

let collect ?ctx ~workers ~phase_correction () =
  let ctx = Exp.or_default ctx in
  let horizon =
    match ctx.Exp.Ctx.scale with
    | Exp.Quick -> Time.ms 120
    | Exp.Full -> Time.sec 1
  in
  let period = Time.us 100 in
  let sys =
    Scheduler.create ~seed:ctx.Exp.Ctx.seed ~num_cpus:(workers + 1)
      ~obs:ctx.Exp.Ctx.sink Hrt_hw.Platform.phi
  in
  let collector =
    Exp.make_spread_collector sys ~workers ~period ~settle:(Time.ms 20)
  in
  Exp.run_group_admission ~phase_correction sys ~workers
    (Constraints.periodic ~period ~slice:(Time.us 20) ())
    ();
  Scheduler.run ~until:horizon sys;
  (* Unregister the group so the whole system can be collected. *)
  (match Hrt_group.Group.find sys "exp-group" with
  | Some g -> Hrt_group.Group.dispose g
  | None -> ());
  Exp.spreads collector

let run ?ctx () =
  let ctx = Exp.or_default ctx in
  let spreads = collect ~ctx ~workers:8 ~phase_correction:false () in
  let s = Summary.of_array spreads in
  let table =
    Table.create
      ~title:
        "Fig 11: cross-CPU scheduler synchronization, 8-thread periodic \
         group, phase correction off (max difference in context-switch \
         instants, cycles)"
      ~columns:[ ("metric", Table.Left); ("value", Table.Right) ]
  in
  Table.row table [ "scheduler invocations measured"; string_of_int (Summary.count s) ];
  Table.row table [ "mean max-difference (cycles)"; Printf.sprintf "%.0f" (Summary.mean s) ];
  Table.row table [ "min (cycles)"; Printf.sprintf "%.0f" (Summary.min s) ];
  Table.row table [ "max (cycles)"; Printf.sprintf "%.0f" (Summary.max s) ];
  Table.row table [ "stddev (cycles)"; Printf.sprintf "%.0f" (Summary.stddev s) ];
  (* A small sample of the series, for plotting the Fig 11 scatter. *)
  let sample =
    Table.create ~title:"Fig 11: series sample (every ~10% of the run)"
      ~columns:
        [ ("invocation index", Table.Right); ("max difference (cycles)", Table.Right) ]
  in
  let n = Array.length spreads in
  if n > 0 then
    for k = 0 to 9 do
      let i = k * (n - 1) / 9 in
      Table.row sample [ string_of_int i; Printf.sprintf "%.0f" spreads.(i) ]
    done;
  [ table; sample ]
