(** Per-CPU cycle counter (TSC) model.

    Each CPU's counter runs at the platform frequency ("constant TSC") but
    starts at a slightly different moment of the boot sequence, so raw
    counters disagree by a per-CPU offset. The counter is writable, which is
    how the boot-time calibration (paper Section 3.4, Fig 3) corrects the
    skew on machines that support it. *)

open Hrt_engine

type t

val create : ghz:float -> start_skew:Time.ns -> t
(** A counter that began counting [start_skew] after simulated time zero. *)

val read : t -> now:Time.ns -> int64
(** Value of the counter at wall-clock [now]. *)

val write : t -> now:Time.ns -> int64 -> unit
(** Set the counter so that a read at [now] returns the written value. *)

val adjust : t -> int64 -> unit
(** Add a signed delta to the counter. *)

val offset_cycles : t -> int64
(** Current offset relative to an ideal counter started at time zero
    (0 for a perfectly synchronized CPU). *)

val ghz : t -> float

val reading_of_ns : t -> Time.ns -> int64
