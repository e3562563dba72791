open Hrt_engine

type subscriber = time:Time.ns -> cpu:int -> Event.t -> unit
type probe = { p_name : string; read : unit -> float }

(* One series the sink derives from events: its registry name and, per
   CPU, the registry handle resolved on first use ([None] until then). *)
type 'h row = { name : string; mutable cells : 'h option array }

(* Every series [update_metrics] feeds, resolved once per (series, cpu):
   after first use an event costs an array load, not a registry lookup. *)
type handles = {
  dispatch : Metrics.counter row;
  preempt : Metrics.counter row;
  deadline_miss : Metrics.counter row;
  miss_lateness_us : Metrics.histo row;
  miss_time_us : Metrics.histo row;
  admission_accept : Metrics.counter row;
  admission_reject : Metrics.counter row;
  arrival : Metrics.counter row;
  complete : Metrics.counter row;
  block : Metrics.counter row;
  wake : Metrics.counter row;
  irq_count : Metrics.counter row;
  irq_dur_us : Metrics.histo row;
  sched_pass : Metrics.counter row;
  sched_pass_us : Metrics.histo row;
  steal_attempt : Metrics.counter row;
  steal_success : Metrics.counter row;
  barrier_arrive : Metrics.counter row;
  barrier_release : Metrics.counter row;
  barrier_wait_us : Metrics.histo row;
  election_decided : Metrics.counter row;
  election_leader : Metrics.counter row;
  plan_armed : Metrics.counter row;
  overload_transition : Metrics.counter row;
  overload : Metrics.gauge row;
  shed : Metrics.counter row;
  demote : Metrics.counter row;
  recover : Metrics.counter row;
  idle_transition : Metrics.counter row;
  (* ["group.phase.<phase>"] rows, keyed by phase, in first-use order. *)
  mutable phases : (string * Metrics.counter row) list;
  (* Largest CPU index seen plus one: the length a row takes when it
     first grows, so rows are sized to the machine, not doubled. *)
  mutable width : int;
}

type t = {
  enabled : bool;
  metrics : Metrics.t;
  trace : Tracer.t option;
  mutable subscribers : subscriber list;
  mutable probes : probe list; (* registration order, oldest first *)
  handles : handles;
}

let row name = { name; cells = [||] }

let handles () =
  {
    dispatch = row "sched.dispatch";
    preempt = row "sched.preempt";
    deadline_miss = row "sched.deadline_miss";
    miss_lateness_us = row "sched.miss_lateness_us";
    miss_time_us = row "sched.miss_time_us";
    admission_accept = row "admission.accept";
    admission_reject = row "admission.reject";
    arrival = row "sched.arrival";
    complete = row "sched.complete";
    block = row "sched.block";
    wake = row "sched.wake";
    irq_count = row "irq.count";
    irq_dur_us = row "irq.dur_us";
    sched_pass = row "sched.pass";
    sched_pass_us = row "sched.pass_us";
    steal_attempt = row "steal.attempt";
    steal_success = row "steal.success";
    barrier_arrive = row "barrier.arrive";
    barrier_release = row "barrier.release";
    barrier_wait_us = row "barrier.wait_us";
    election_decided = row "group.election.decided";
    election_leader = row "group.election.leader";
    plan_armed = row "fault.plan_armed";
    overload_transition = row "sched.overload_transition";
    overload = row "sched.overload";
    shed = row "sched.shed";
    demote = row "sched.demote";
    recover = row "sched.recover";
    idle_transition = row "sched.idle_transition";
    phases = [];
    width = 0;
  }

let make ~enabled ~trace =
  {
    enabled;
    metrics = Metrics.create ();
    trace;
    subscribers = [];
    probes = [];
    handles = handles ();
  }

let null = make ~enabled:false ~trace:None

let create ?(trace = true) () =
  make ~enabled:true ~trace:(if trace then Some (Tracer.create ()) else None)

let enabled t = t.enabled
let metrics t = t.metrics
let tracer t = t.trace
let subscribe t f = t.subscribers <- f :: t.subscribers

let add_probe t ~name read =
  if t.enabled then t.probes <- t.probes @ [ { p_name = name; read } ]

let sample_probes t =
  if t.enabled then
    List.iter
      (fun p -> Metrics.set (Metrics.gauge t.metrics p.p_name) (p.read ()))
      t.probes

(* ---- handle resolution ---- *)

let new_counter m ~cpu name = Metrics.counter m ~cpu name
let new_histo m ~cpu name = Metrics.histo m ~cpu name
let new_gauge m ~cpu name = Metrics.gauge m ~cpu name

(* First use of a (series, cpu): register it in the registry (so creation
   order, and with it every export, is exactly what per-event lookups
   produced) and cache the handle. *)
let[@hrt.cold] resolve t make r ~cpu =
  let h = make t.metrics ~cpu r.name in
  let hs = t.handles in
  if cpu >= 0 then begin
    if cpu >= hs.width then hs.width <- cpu + 1;
    let n = Array.length r.cells in
    if cpu >= n then begin
      let cells = Array.make hs.width None in
      Array.blit r.cells 0 cells 0 n;
      r.cells <- cells
    end;
    r.cells.(cpu) <- Some h
  end;
  h

let[@hrt.hot] [@inline] handle t make r ~cpu =
  match
    if cpu >= 0 && cpu < Array.length r.cells then Array.unsafe_get r.cells cpu
    else None
  with
  | Some h -> h
  | None -> resolve t make r ~cpu

let[@hrt.cold] add_phase t phase =
  let r = row ("group.phase." ^ phase) in
  t.handles.phases <- t.handles.phases @ [ (phase, r) ];
  r

let[@hrt.hot] rec find_phase t phase phases =
  match phases with
  | (p, r) :: rest -> if String.equal p phase then r else find_phase t phase rest
  | [] -> add_phase t phase

let[@hrt.cold] set_policy t ~cpu policy =
  if cpu >= t.handles.width then t.handles.width <- cpu + 1;
  Metrics.set (Metrics.gauge t.metrics ~cpu ("sched.policy." ^ policy)) 1.

let us ns = Int64.to_float ns /. 1_000.

let[@hrt.hot] [@inline] incr t r ~cpu = Metrics.incr (handle t new_counter r ~cpu)

let[@hrt.hot] [@inline] observe t r ~cpu v =
  Metrics.observe (handle t new_histo r ~cpu) v

(* Derive the standard per-CPU metrics from an event. Emit only runs on
   enabled sinks, so the disabled hot path never gets here. *)
let[@hrt.hot] update_metrics t ~cpu ev =
  let h = t.handles in
  match ev with
  | Event.Dispatch _ -> incr t h.dispatch ~cpu
  | Event.Preempt _ -> incr t h.preempt ~cpu
  | Event.Deadline_miss { lateness_ns; _ } ->
    incr t h.deadline_miss ~cpu;
    observe t h.miss_lateness_us ~cpu (us lateness_ns)
  | Event.Admission_accept _ -> incr t h.admission_accept ~cpu
  | Event.Admission_reject _ -> incr t h.admission_reject ~cpu
  | Event.Arrival _ -> incr t h.arrival ~cpu
  | Event.Complete _ -> incr t h.complete ~cpu
  | Event.Block _ -> incr t h.block ~cpu
  | Event.Wake _ -> incr t h.wake ~cpu
  | Event.Irq { dur_ns } ->
    incr t h.irq_count ~cpu;
    observe t h.irq_dur_us ~cpu (us dur_ns)
  | Event.Sched_pass { dur_ns } ->
    incr t h.sched_pass ~cpu;
    observe t h.sched_pass_us ~cpu (us dur_ns)
  | Event.Steal_attempt { success; _ } ->
    incr t h.steal_attempt ~cpu;
    if success then incr t h.steal_success ~cpu
  | Event.Barrier_arrive _ -> incr t h.barrier_arrive ~cpu
  | Event.Barrier_release { wait_ns; _ } ->
    incr t h.barrier_release ~cpu;
    observe t h.barrier_wait_us ~cpu (us wait_ns)
  | Event.Group_phase { phase; _ } -> incr t (find_phase t phase h.phases) ~cpu
  | Event.Elected { leader; _ } ->
    incr t h.election_decided ~cpu;
    if leader then incr t h.election_leader ~cpu
  | Event.Policy { policy } -> set_policy t ~cpu policy
  | Event.Fault_plan _ -> incr t h.plan_armed ~cpu
  | Event.Overload { boundary } ->
    incr t h.overload_transition ~cpu;
    Metrics.set
      (handle t new_gauge h.overload ~cpu)
      (if String.equal boundary "none" then 0. else 1.)
  | Event.Shed _ -> incr t h.shed ~cpu
  | Event.Demote _ -> incr t h.demote ~cpu
  | Event.Recover _ -> incr t h.recover ~cpu
  | Event.Idle -> incr t h.idle_transition ~cpu

let[@hrt.hot] rec notify subs ~time ~cpu ev =
  match subs with
  | [] -> ()
  | f :: rest ->
    f ~time ~cpu ev;
    notify rest ~time ~cpu ev

let[@hrt.hot] emit t ~time ~cpu ev =
  if t.enabled then begin
    update_metrics t ~cpu ev;
    (match t.trace with
    | Some tr -> Tracer.record tr ~time ~cpu ev
    | None -> ());
    notify t.subscribers ~time ~cpu ev
  end

let record_miss_time t ~cpu miss_ns =
  if t.enabled then observe t t.handles.miss_time_us ~cpu (us miss_ns)

(* ---- per-job fan-out ---- *)

let child t =
  if not t.enabled then null
  else
    (* Keep a tracer whenever the parent could want the events back:
       either it traces itself, or it has subscribers that [absorb] must
       replay to. Probes read live state owned by the parent's domain
       (e.g. an engine queue); a job's child sink never samples them. *)
    make ~enabled:true
      ~trace:
        (if Option.is_some t.trace || t.subscribers <> [] then
           Some (Tracer.create ())
         else None)

let absorb t ch =
  if t.enabled && ch.enabled && not (ch == t) then begin
    Metrics.merge t.metrics ch.metrics;
    match ch.trace with
    | None -> ()
    | Some ctr ->
      Tracer.iter ctr (fun { Tracer.time; cpu; event } ->
          (match t.trace with
          | Some ptr -> Tracer.record ptr ~time ~cpu event
          | None -> ());
          notify t.subscribers ~time ~cpu event)
  end
