open Hrt_engine
open Hrt_core
open Hrt_group

type scale = Quick | Full

let cpus scale quick full = match scale with Quick -> quick | Full -> full

let resolve_jobs ?(default = 1) flag env =
  match flag with
  | Some n -> n
  | None -> (
    match Option.bind env (fun s -> int_of_string_opt (String.trim s)) with
    | Some n when n >= 1 -> n
    | Some _ | None -> default)

let jobs_of_env () = resolve_jobs None (Sys.getenv_opt "HRT_JOBS")

module Ctx = struct
  type t = {
    seed : int64;
    scale : scale;
    policy : Config.policy;
    sink : Hrt_obs.Sink.t;
    jobs : int;
    fault : Hrt_fault.Fault.Plan.t option;
    degrade : bool;
  }

  let make ?(seed = 42L) ?(scale = Quick) ?(policy = Config.Edf)
      ?(sink = Hrt_obs.Sink.null) ?jobs ?fault ?(degrade = false) () =
    let jobs =
      match jobs with Some j -> Stdlib.max 1 j | None -> jobs_of_env ()
    in
    { seed; scale; policy; sink; jobs; fault; degrade }

  let default () = make ()
  let with_jobs t jobs = { t with jobs = Stdlib.max 1 jobs }
end

let or_default ctx = match ctx with Some c -> c | None -> Ctx.default ()

(* Fan a list of independent job descriptions across domains. Each job
   receives its own context: when fanning out with an enabled sink, a
   fresh child sink per job (a sink is touched by exactly one domain);
   otherwise the parent context verbatim. Children are absorbed back into
   the parent in submission order after every job has finished, so the
   metric/trace/subscriber streams are identical to a sequential run —
   see Hrt_obs.Sink.absorb. *)
let parallel_map (ctx : Ctx.t) f items =
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let fan = ctx.Ctx.jobs > 1 && Hrt_obs.Sink.enabled ctx.Ctx.sink in
    let ctxs =
      if fan then
        Array.init n (fun _ ->
            { ctx with Ctx.sink = Hrt_obs.Sink.child ctx.Ctx.sink })
      else Array.make n ctx
    in
    let pool = Hrt_par.Par.Pool.create ~jobs:ctx.Ctx.jobs in
    let out =
      Hrt_par.Par.map pool
        (fun i -> f ctxs.(i) arr.(i))
        (Array.init n (fun i -> i))
    in
    if fan then
      Array.iter
        (fun (jctx : Ctx.t) -> Hrt_obs.Sink.absorb ctx.Ctx.sink jctx.Ctx.sink)
        ctxs;
    Array.to_list out
  end

let periodic_thread sys ~cpu ?(phase = 0L) ~period ~slice ?(on_admit = fun _ -> ())
    () =
  let constr = Constraints.periodic ~phase ~period ~slice () in
  Scheduler.spawn sys ~name:(Printf.sprintf "rt-%d" cpu) ~cpu ~bound:true
    (Program.seq
       [
         Program.of_steps (Scheduler.admission_ops sys constr ~on_result:on_admit);
         Program.compute_forever (Time.sec 3600);
       ])

type spread_collector = {
  mutable acc : (int * Time.ns) list array;  (* bucket -> (cpu, time) *)
  mutable spreads_rev : float list;
  workers : int;
  period : Time.ns;
  settle : Time.ns;
  ghz : float;
}

let make_spread_collector sys ~workers ~period ~settle =
  let buckets = 65536 in
  let c =
    {
      acc = Array.make buckets [];
      spreads_rev = [];
      workers;
      period;
      settle;
      ghz = (Scheduler.platform sys).Hrt_hw.Platform.ghz;
    }
  in
  Scheduler.set_dispatch_hook sys
    (Some
       (fun cpu th time ->
         if
           cpu >= 1 && cpu <= workers
           && Thread.is_realtime th
           && Time.(time > c.settle)
           (* Only the arrival dispatch (first dispatch of the period). *)
           && Time.(time - th.Thread.arrival < c.period / 2)
         then begin
           let bucket =
             Int64.to_int (Int64.div th.Thread.arrival c.period)
             mod Array.length c.acc
           in
           let cur = c.acc.(bucket) in
           if not (List.mem_assoc cpu cur) then begin
             let cur = (cpu, time) :: cur in
             c.acc.(bucket) <- cur;
             if List.length cur = workers then begin
               let ts = List.map snd cur in
               let mx = List.fold_left Time.max (List.hd ts) ts in
               let mn = List.fold_left Time.min (List.hd ts) ts in
               let spread_cycles = Int64.to_float Time.(mx - mn) *. c.ghz in
               c.spreads_rev <- spread_cycles :: c.spreads_rev;
               (let sink = Scheduler.obs sys in
                if Hrt_obs.Sink.enabled sink then
                  Hrt_obs.Metrics.observe
                    (Hrt_obs.Metrics.histo
                       (Hrt_obs.Sink.metrics sink)
                       "group.spread_cycles")
                    spread_cycles);
               c.acc.(bucket) <- []
             end
           end
         end));
  c

let spreads c = Array.of_list (List.rev c.spreads_rev)

let run_group_admission ?(phase_correction = true) ?probe ?after sys ~workers
    constr () =
  let group = Group.create sys ~name:"exp-group" in
  let start_barrier = Gbarrier.create sys ~parties:workers in
  let session = ref None in
  let after =
    match after with
    | Some f -> f
    | None -> Program.compute_forever (Time.sec 3600)
  in
  for i = 1 to workers do
    ignore
      (Scheduler.spawn sys ~name:(Printf.sprintf "g-%d" i) ~cpu:i ~bound:true
         (Program.seq
            [
              Group.join group;
              Gbarrier.cross start_barrier;
              (fun _ctx ->
                (if !session = None then
                   session :=
                     Some (Group_sched.prepare ~phase_correction group constr));
                Thread.Exit);
              (let body = ref None in
               fun ctx ->
                 let b =
                   match !body with
                   | Some b -> b
                   | None ->
                     let b =
                       Group_sched.change_constraints ?probe
                         (Option.get !session) ~on_result:(fun _ -> ())
                     in
                     body := Some b;
                     b
                 in
                 b ctx);
              after;
            ]))
  done
