open Hrt_engine
open Hrt_core
open Hrt_hw

type t = {
  config : Config.t;
  overhead_ns : Time.ns;
  tasks : Constraints.t list;
}

let make ?(config = Config.default) ?(overhead_ns = 0L) tasks =
  { config; overhead_ns; tasks }

(* Mirrors the admission ledger the scheduler boots with: each arrival is
   charged two scheduler invocations, an invocation being the mean cost of
   interrupt dispatch, one scheduler pass, residual bookkeeping, and a
   context switch (Local_sched.create). *)
let overhead_of_platform (plat : Platform.t) =
  let per_invocation =
    plat.Platform.irq_dispatch.Platform.mean_cycles
    +. plat.Platform.sched_pass.Platform.mean_cycles
    +. plat.Platform.sched_other.Platform.mean_cycles
    +. plat.Platform.ctx_switch.Platform.mean_cycles
  in
  Platform.cycles_to_ns plat (2. *. per_invocation)

(* The two analysis views the CLI and the serving daemon expose. The
   production view mirrors the ledger a scheduler boots with (periodic
   capacity limit, measured per-arrival overhead); the raw view asks the
   pure feasibility question (full CPU, zero overhead) — a rejection
   there with an exact certificate means no schedule exists at all. *)
let production_view ~policy ~platform tasks =
  make
    ~config:{ Config.default with Config.policy }
    ~overhead_ns:(overhead_of_platform platform)
    tasks

let raw_view ~policy tasks =
  make
    ~config:
      {
        Config.default with
        Config.policy;
        util_limit = 1.0;
        strict_reservations = false;
        sporadic_reservation = 1.0;
      }
    ~overhead_ns:0L tasks

(* Analysis-relevant view of one task as a (kind, a, b) triple. Periodic
   phases are dropped: every test assumes the synchronous
   (critical-instant) release pattern, which dominates any phasing.
   Sporadic deadlines are folded to the laxity window so two requests
   with equal demand shape hit the same cache line regardless of
   wall-clock anchoring. Aperiodic priorities play no part in admission. *)
let task_key = function
  | Constraints.Aperiodic _ -> (0, 0L, 0L)
  | Constraints.Periodic { period; slice; _ } -> (1, period, slice)
  | Constraints.Sporadic { phase; size; deadline; _ } ->
    (2, size, Time.(deadline - phase))

let compare_task_key (k1, a1, b1) (k2, a2, b2) =
  if k1 <> k2 then Int.compare k1 k2
  else
    let c = Int64.compare a1 a2 in
    if c <> 0 then c else Int64.compare b1 b2

(* Fixed-width binary fields: two tag bytes, three floats, two booleans
   and three int64s of header, then 17 bytes per task. Every field has
   one width, so the encoding is injective without separators. *)
let header_bytes = 2 + (3 * 8) + 2 + (3 * 8)
let task_bytes = 1 + (2 * 8)

let canonical t =
  let cfg = t.config in
  let tasks = List.sort compare_task_key (List.map task_key t.tasks) in
  let b = Bytes.create (header_bytes + (task_bytes * List.length tasks)) in
  let pos = ref 0 in
  let byte v =
    Bytes.set_uint8 b !pos v;
    incr pos
  in
  let int64 v =
    Bytes.set_int64_le b !pos v;
    pos := !pos + 8
  in
  let float f = int64 (Int64.bits_of_float f) in
  byte (match cfg.Config.policy with Config.Edf -> 0 | Config.Rm -> 1);
  byte
    (match cfg.Config.admission with
    | Config.Policy_bound -> 0
    | Config.Hyperperiod_sim -> 1);
  float cfg.Config.util_limit;
  float cfg.Config.sporadic_reservation;
  float cfg.Config.aperiodic_reservation;
  byte (Bool.to_int cfg.Config.admission_control);
  byte (Bool.to_int cfg.Config.strict_reservations);
  int64 cfg.Config.min_period;
  int64 cfg.Config.min_slice;
  int64 t.overhead_ns;
  List.iter
    (fun (kind, a, c) ->
      byte kind;
      int64 a;
      int64 c)
    tasks;
  Bytes.to_string b

let fingerprint t = Digest.string (canonical t)

let pp fmt t =
  Format.fprintf fmt "@[<v>%d tasks under %s (overhead %Ldns):@,%a@]"
    (List.length t.tasks)
    (Config.policy_name t.config.Config.policy)
    t.overhead_ns
    (Format.pp_print_list Constraints.pp)
    t.tasks
