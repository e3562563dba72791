(** Timing constraints (paper Section 3.1, following Liu's model).

    - {e Aperiodic} threads have no real-time constraint, only a priority.
      Newly created threads start in this class.
    - {e Periodic} threads have (phase, period, slice): first arrival at
      admission time + phase, then every period; each arrival is guaranteed
      [slice] of CPU before the next arrival (its deadline).
    - {e Sporadic} threads have (phase, size, deadline, priority): one
      arrival at admission + phase, guaranteed [size] of CPU before the
      absolute wall-clock [deadline], after which the thread continues as an
      aperiodic thread with the given priority. *)

open Hrt_engine

type t =
  | Aperiodic of { prio : int }
  | Periodic of { phase : Time.ns; period : Time.ns; slice : Time.ns }
  | Sporadic of {
      phase : Time.ns;
      size : Time.ns;
      deadline : Time.ns;  (** absolute wall-clock time *)
      aper_prio : int;
    }

val aperiodic : ?prio:int -> unit -> t
(** Default priority 0 (lowest). *)

val periodic : ?phase:Time.ns -> period:Time.ns -> slice:Time.ns -> unit -> t
val sporadic :
  ?phase:Time.ns -> size:Time.ns -> deadline:Time.ns -> ?aper_prio:int -> unit -> t

val is_realtime : t -> bool

type criticality = Low | Mid | High
(** Per-thread importance for graceful degradation (the overload story of
    DESIGN §8): when interference pushes demand past the admission bound,
    the scheduler sheds lower-criticality threads first so higher ones
    keep their guarantees. Orthogonal to the constraint class — any class
    may carry any criticality. *)

val crit_rank : criticality -> int
(** [Low] = 0, [Mid] = 1, [High] = 2. *)

val crit_name : criticality -> string
(** Stable lowercase name ("low" / "mid" / "high") used in Obs events. *)

val crit_of_rank : int -> criticality
(** Clamps out-of-range ranks to the nearest level. *)

val utilization : t -> float
(** [slice/period] for periodic constraints; 0 otherwise (sporadic
    utilization depends on admission time, see {!Admission}). *)

val with_phase : t -> Time.ns -> t
(** Replace the phase (used by group phase correction, §4.4). Aperiodic
    constraints are returned unchanged. *)

val validate : t -> (unit, string) result
(** Structural sanity: positive period/slice/size, slice <= period. *)

val pp : Format.formatter -> t -> unit
