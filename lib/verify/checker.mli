(** The streaming invariant checker: a state machine over the ordered
    [Obs.Event] stream that accumulates {!Rules.t} violations.

    Feed it events in trace (emission) order — the same order the tracer
    buffers them and the exporter writes them. The checker reconstructs the
    scheduler's observable state (running set, released arrivals, blocked
    set, barrier rounds, elections) and flags every event inconsistent with
    the invariant catalog.

    A [Policy] event on CPU 0 marks the boot of a fresh scheduler; traces
    holding several sequential runs are split into segments there and all
    cross-event state is reset. Interleaved events from two live schedulers
    sharing one sink are not supported.

    Violation counts are exact; stored counterexamples are capped per rule
    so reports stay bounded on pathological traces. *)

open Hrt_engine

type t

type violation = {
  rule : Rules.t;
  index : int;  (** 0-based position of the offending event in the stream *)
  time : Time.ns;  (** simulated timestamp of the offending event *)
  cpu : int;
  segment : int;  (** 0-based run segment within the trace *)
  detail : string;  (** human-readable counterexample *)
}

val create : unit -> t

val feed : t -> time:Time.ns -> cpu:int -> Hrt_obs.Event.t -> unit
(** Check one event and update the reconstructed state. *)

val events_seen : t -> int
val segments : t -> int

val violations : t -> violation list
(** Stored counterexamples, in stream order (capped per rule). *)

val rule_counts : t -> (Rules.t * int) list
(** Exact violation count for every rule, in {!Rules.all} order. *)

val clean : t -> bool
(** [true] iff no rule fired. *)
