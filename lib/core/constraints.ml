open Hrt_engine

type t =
  | Aperiodic of { prio : int }
  | Periodic of { phase : Time.ns; period : Time.ns; slice : Time.ns }
  | Sporadic of {
      phase : Time.ns;
      size : Time.ns;
      deadline : Time.ns;
      aper_prio : int;
    }

let aperiodic ?(prio = 0) () = Aperiodic { prio }

let periodic ?(phase = 0L) ~period ~slice () = Periodic { phase; period; slice }

let sporadic ?(phase = 0L) ~size ~deadline ?(aper_prio = 0) () =
  Sporadic { phase; size; deadline; aper_prio }

let is_realtime = function
  | Aperiodic _ -> false
  | Periodic _ | Sporadic _ -> true

type criticality = Low | Mid | High

let crit_rank = function Low -> 0 | Mid -> 1 | High -> 2
let crit_name = function Low -> "low" | Mid -> "mid" | High -> "high"

let crit_of_rank r = if r <= 0 then Low else if r = 1 then Mid else High

let utilization = function
  | Periodic { period; slice; _ } ->
    if Int64.compare period 0L > 0 then
      Int64.to_float slice /. Int64.to_float period
    else 0.
  | Aperiodic _ | Sporadic _ -> 0.

let with_phase t phase =
  match t with
  | Aperiodic _ -> t
  | Periodic p -> Periodic { p with phase }
  | Sporadic s -> Sporadic { s with phase }

let validate = function
  | Aperiodic _ -> Ok ()
  | Periodic { phase; period; slice } ->
    if Time.(phase < 0L) then Error "periodic: negative phase"
    else if Time.(period <= 0L) then Error "periodic: non-positive period"
    else if Time.(slice <= 0L) then Error "periodic: non-positive slice"
    else if Time.(slice > period) then Error "periodic: slice exceeds period"
    else Ok ()
  | Sporadic { phase; size; deadline; _ } ->
    if Time.(phase < 0L) then Error "sporadic: negative phase"
    else if Time.(size <= 0L) then Error "sporadic: non-positive size"
    else if Time.(deadline <= 0L) then Error "sporadic: non-positive deadline"
    else Ok ()

let pp fmt = function
  | Aperiodic { prio } -> Format.fprintf fmt "aperiodic(prio=%d)" prio
  | Periodic { phase; period; slice } ->
    Format.fprintf fmt "periodic(phase=%a, period=%a, slice=%a)" Time.pp phase
      Time.pp period Time.pp slice
  | Sporadic { phase; size; deadline; aper_prio } ->
    Format.fprintf fmt "sporadic(phase=%a, size=%a, deadline=%a, prio=%d)"
      Time.pp phase Time.pp size Time.pp deadline aper_prio
