open Hrt_engine
open Hrt_core

(* A contended spin section: the [p]-th thread to enter since the section
   went quiet spins for (p+1) holdings of the lock. "Quiet" is detected by
   wall-clock distance: contenders arriving within the window pile up.
   This models every serialized group-bookkeeping step and yields the
   linear per-member costs of Fig 10. *)
type section = {
  mutable contenders : int;
  mutable last_enter : Time.ns;
  cost : Hrt_hw.Platform.cost;
}

type t = {
  sys : Scheduler.t;
  name : string;
  mutable members : Thread.t list; (* reverse join order *)
  mutable size : int;
  mutable constraints : Constraints.t option;
  mutable locked_by : Thread.t option;
  join_sec : section;
}

(* The name registry is a process-wide association list filtered by
   scheduler identity, so independent simulated systems cannot see each
   other's groups. It is the one piece of state shared between systems,
   so it is mutex-protected: parallel sweep jobs (Hrt_par) create and
   dispose groups from different domains. *)
let registry : t list ref = ref []
let registry_mu = Mutex.create ()

let create sys ~name =
  let t =
    {
      sys;
      name;
      members = [];
      size = 0;
      constraints = None;
      locked_by = None;
      join_sec =
        {
          contenders = 0;
          last_enter = Int64.min_int;
          cost = (Scheduler.platform sys).Hrt_hw.Platform.group_join_step;
        };
    }
  in
  Mutex.protect registry_mu (fun () -> registry := t :: !registry);
  t

let find sys name =
  Mutex.protect registry_mu (fun () ->
      List.find_opt (fun g -> g.name = name && g.sys == sys) !registry)

let dispose t =
  Mutex.protect registry_mu (fun () ->
      registry := List.filter (fun g -> not (g == t)) !registry)

let destroy t =
  if t.size > 0 then invalid_arg "Group.destroy: members remain";
  dispose t

let name t = t.name
let size t = t.size
let members t = List.rev t.members
let scheduler t = t.sys

let set_constraints t c = t.constraints <- c
let constraints t = t.constraints

let lock t th =
  match t.locked_by with
  | Some owner when not (owner == th) -> invalid_arg "Group.lock: held"
  | Some _ | None -> t.locked_by <- Some th

let unlock t th =
  match t.locked_by with
  | Some owner when owner == th -> t.locked_by <- None
  | Some _ -> invalid_arg "Group.unlock: not owner"
  | None -> ()

let locked_by t = t.locked_by

let enter_section s =
  let pos = ref None in
  fun ({ Thread.svc; self } as _ctx : Thread.ctx) ->
    match !pos with
    | None ->
      let now = svc.Thread.now () in
      let window = Time.us 500 in
      if Time.(now - s.last_enter > window) then s.contenders <- 0;
      s.last_enter <- now;
      let p = s.contenders in
      s.contenders <- p + 1;
      pos := Some p;
      let hold = svc.Thread.sample self s.cost in
      Thread.Compute (Int64.mul hold (Int64.of_int (p + 1)))
    | Some _ -> Thread.Exit

let join t =
  let inner = enter_section t.join_sec in
  let registered = ref false in
  fun ctx ->
    if not !registered then begin
      registered := true;
      t.members <- ctx.Thread.self :: t.members;
      t.size <- t.size + 1
    end;
    inner ctx

let leave t =
  let inner = enter_section t.join_sec in
  let removed = ref false in
  fun ctx ->
    if not !removed then begin
      removed := true;
      t.members <- List.filter (fun m -> not (m == ctx.Thread.self)) t.members;
      t.size <- t.size - 1
    end;
    inner ctx
