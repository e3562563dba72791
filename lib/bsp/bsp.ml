open Hrt_engine
open Hrt_hw
open Hrt_core
open Hrt_group

type params = {
  cpus : int;
  ne : int;
  nc : int;
  nw : int;
  iters : int;
  barrier : bool;
}

(* Granularities calibrated so that, on the Phi platform, one iteration's
   work is ~8-12 us (finest) or ~500 us (coarsest), matching the regimes
   of Figs 13-16. *)
let fine_grain ~cpus ~barrier =
  { cpus; ne = 200; nc = 10; nw = 16; iters = 1000; barrier }

let coarse_grain ~cpus ~barrier =
  { cpus; ne = 2500; nc = 65; nw = 64; iters = 400; barrier }

type mode =
  | Aperiodic
  | Rt of { period : Time.ns; slice : Time.ns; phase_correction : bool }

type result = {
  exec_time : Time.ns;
  start_time : Time.ns;
  end_time : Time.ns;
  iterations_done : int;
  misses : int;
  checksum : float;
  admitted : bool;
}

let iteration_cost_model (plat : Platform.t) p =
  let flops = float_of_int (p.ne * p.nc) in
  let writes = float_of_int p.nw in
  let mean =
    (flops *. plat.Platform.flop_cost.Platform.mean_cycles)
    +. (writes *. plat.Platform.remote_write.Platform.mean_cycles)
  in
  let sigma =
    (sqrt flops *. plat.Platform.flop_cost.Platform.sigma_cycles)
    +. (sqrt writes *. plat.Platform.remote_write.Platform.sigma_cycles)
  in
  Platform.cost mean sigma

let work_per_iteration plat p =
  Platform.cycles_to_ns plat (iteration_cost_model plat p).Platform.mean_cycles

type shared_state = {
  domain : float array;  (* cpus * ne doubles *)
  mutable started : int;
  mutable finished : int;
  mutable first_start : Time.ns;
  mutable last_end : Time.ns;
  mutable iterations_done : int;
  mutable admitted_all : bool;
}

(* The update stage of one iteration: compute_local_element over the first
   (up to 64) local elements, adding [(iter + j) mod 7] to element [j],
   then [nw] remote writes into the ring neighbour's region, write [w]
   landing on element [w mod ne]. Both residues come from wrapping
   counters instead: [ne] is not a constant, so [w mod ne] would be a
   hardware division per write. [phase] is [iter mod 7]. *)
let update_step domain ~ne ~nw ~my_base ~neighbour_base ~phase =
  let r = ref phase in
  for j = 0 to Stdlib.min (ne - 1) 63 do
    let idx = my_base + j in
    domain.(idx) <- (domain.(idx) *. 0.5) +. float_of_int !r;
    if !r = 6 then r := 0 else incr r
  done;
  let k = ref 0 in
  for _ = 1 to nw do
    let idx = neighbour_base + !k in
    domain.(idx) <- domain.(idx) +. 1.0;
    if !k = ne - 1 then k := 0 else incr k
  done

(* One worker's iteration loop as a hand-rolled state machine: compute,
   apply remote writes (ring pattern), optionally cross the barrier. *)
let worker_loop sys shared p ~index ~iter_cost ~barrier_for =
  let my_base = index * p.ne in
  let neighbour_base = (index + 1) mod p.cpus * p.ne in
  let iter = ref 0 in
  let phase = ref 0 (* !iter mod 7 *) in
  let stage = ref `Compute in
  let crossing = ref None in
  let recorded_start = ref false in
  fun ({ Thread.svc; self } as ctx : Thread.ctx) ->
    if not !recorded_start then begin
      recorded_start := true;
      let now = svc.Thread.now () in
      if shared.started = 0 then shared.first_start <- now;
      shared.started <- shared.started + 1
    end;
    let rec step () =
      if !iter >= p.iters then begin
        let now = svc.Thread.now () in
        shared.finished <- shared.finished + 1;
        if Time.(now > shared.last_end) then shared.last_end <- now;
        if shared.finished = p.cpus then Engine.stop (Scheduler.engine sys);
        Thread.Exit
      end
      else begin
        match !stage with
        | `Compute ->
          stage := `Update;
          Thread.Compute (svc.Thread.sample self iter_cost)
        | `Update ->
          update_step shared.domain ~ne:p.ne ~nw:p.nw ~my_base ~neighbour_base
            ~phase:!phase;
          phase := if !phase = 6 then 0 else !phase + 1;
          shared.iterations_done <- shared.iterations_done + 1;
          if p.barrier then begin
            crossing := Some (Gbarrier.cross barrier_for);
            stage := `Barrier;
            step ()
          end
          else begin
            incr iter;
            stage := `Compute;
            step ()
          end
        | `Barrier -> (
          match !crossing with
          | None -> assert false
          | Some body -> (
            match body ctx with
            | Thread.Exit ->
              crossing := None;
              incr iter;
              stage := `Compute;
              step ()
            | op -> op))
      end
    in
    step ()

let run ?(seed = 42L) ?(platform = Platform.phi) ?(until = Time.sec 100)
    ?(policy = Config.Edf) ?obs p mode =
  if p.cpus < 1 then invalid_arg "Bsp.run: cpus < 1";
  if p.ne < 1 then invalid_arg "Bsp.run: ne < 1";
  if p.nc < 0 then invalid_arg "Bsp.run: nc < 0";
  if p.nw < 0 then invalid_arg "Bsp.run: nw < 0";
  if p.iters < 0 then invalid_arg "Bsp.run: iters < 0";
  let config =
    { Config.default with Config.strict_reservations = false; policy }
  in
  let sys =
    Scheduler.create ~seed ~num_cpus:(p.cpus + 1) ~config ?obs platform
  in
  let shared =
    {
      domain = Array.make (p.cpus * p.ne) 0.;
      started = 0;
      finished = 0;
      first_start = 0L;
      last_end = 0L;
      iterations_done = 0;
      admitted_all = true;
    }
  in
  let iter_cost = iteration_cost_model platform p in
  let barrier = Gbarrier.create sys ~parties:p.cpus in
  let start_barrier = Gbarrier.create sys ~parties:p.cpus in
  let group = Group.create sys ~name:"bsp" in
  let session = ref None in
  let prelude index =
    match mode with
    | Aperiodic -> [ Gbarrier.cross start_barrier ]
    | Rt { period; slice; phase_correction } ->
      [
        Group.join group;
        Gbarrier.cross start_barrier;
        (fun _ctx ->
          (if !session = None then
             session :=
               Some
                 (Group_sched.prepare ~phase_correction group
                    (Constraints.periodic ~period ~slice ())));
          ignore index;
          Thread.Exit);
        (let body = ref None in
         fun ctx ->
           let b =
             match !body with
             | Some b -> b
             | None ->
               let b =
                 Group_sched.change_constraints (Option.get !session)
                   ~on_result:(fun v ->
                     if not (Admission.admitted v) then
                       shared.admitted_all <- false)
               in
               body := Some b;
               b
           in
           b ctx);
      ]
  in
  for i = 0 to p.cpus - 1 do
    let cpu = i + 1 in
    ignore
      (Scheduler.spawn sys ~name:(Printf.sprintf "bsp-%d" i) ~cpu ~bound:true
         (Program.seq
            (prelude i
            @ [ worker_loop sys shared p ~index:i ~iter_cost ~barrier_for:barrier ])))
  done;
  let miss_before = Scheduler.total_misses sys in
  Scheduler.run ~until sys;
  (* The group registry is process-global: drop the reference so this
     run's whole simulated system can be collected. *)
  Group.dispose group;
  let checksum = Array.fold_left ( +. ) 0. shared.domain in
  {
    exec_time =
      (if Time.(shared.last_end > shared.first_start) then
         Time.(shared.last_end - shared.first_start)
       else 0L);
    start_time = shared.first_start;
    end_time = shared.last_end;
    iterations_done = shared.iterations_done;
    misses = Scheduler.total_misses sys - miss_before;
    checksum;
    admitted = shared.admitted_all;
  }
