(** Typed scheduler events.

    Every observable transition of the simulated node is one of these
    constructors; the tracer records them with a simulated-time timestamp
    and the CPU they happened on. Spans ({!Irq}, {!Sched_pass}) carry their
    duration and export as Chrome-trace complete events; everything else is
    an instant.

    The event set is deliberately complete enough for the offline verifier
    ([Hrt_verify]) to reconstruct the scheduler's ground truth: the RT
    runnable set (arrival/complete/block/wake), per-CPU occupancy
    (dispatch/preempt/idle), admission decisions with their constraint
    class, and group-protocol progress (barrier rounds, election rounds).
    Adding a constructor without exporter and verifier support is a compile
    error — matches over [t] must stay exhaustive. *)

open Hrt_engine

type cls = Cls_aperiodic | Cls_periodic | Cls_sporadic
(** The constraint class an admission decision was about. *)

type t =
  | Dispatch of { tid : int; thread : string }
      (** a thread was context-switched in *)
  | Preempt of { tid : int; thread : string }
      (** a still-runnable thread was switched out *)
  | Deadline_miss of {
      tid : int;
      thread : string;
      lateness_ns : Time.ns;
      crit : string;
    }
      (** detected at the instant the deadline passed with slice still
          owed; [crit] is the thread's criticality name ({!Constraints}
          [crit_name]) so the degradation rule can judge the miss offline *)
  | Admission_accept of { tid : int; cls : cls }
  | Admission_reject of { tid : int; cls : cls; reason : string }
      (** [reason] is the stable rejection tag
          ([Hrt_core.Admission.Rejection.name]) naming the failed test *)
  | Arrival of {
      tid : int;
      thread : string;
      arrival : Time.ns;
      deadline : Time.ns;
      period : Time.ns;
    }
      (** a real-time arrival joined the run queue. [arrival]/[deadline] are
          the absolute logical arrival instant and deadline; [period] is the
          fixed-priority key (the period for periodic threads, the relative
          deadline for sporadic ones) so both EDF and RM/DM dispatch order
          can be re-derived offline *)
  | Complete of { tid : int; thread : string }
      (** the current real-time arrival was retired: slice consumed,
          sporadic size exhausted (degrading to aperiodic), abandoned by a
          re-anchor, or the thread exited mid-arrival *)
  | Block of { tid : int; thread : string }  (** the thread left the runnable set *)
  | Wake of { tid : int; thread : string }
      (** a blocked thread rejoined a run queue. Cross-CPU wakes are stamped
          with the waking CPU's clock, so this is the one event kind whose
          timestamp may precede the target CPU's last event *)
  | Irq of { dur_ns : Time.ns }  (** interrupt entry to exit *)
  | Sched_pass of { dur_ns : Time.ns }  (** one scheduler pass *)
  | Steal_attempt of { victim : int option; success : bool }
  | Barrier_arrive of { barrier : int; tid : int; order : int }
  | Barrier_release of { barrier : int; parties : int; wait_ns : Time.ns }
      (** [wait_ns] is first-arrival to release *)
  | Group_phase of { tid : int; phase : string }
      (** group-admission protocol phase marks (Algorithm 1) *)
  | Elected of { election : int; round : int; tid : int; leader : bool }
      (** one contender's election outcome; exactly one [leader = true] per
          (election, round) *)
  | Policy of { policy : string }
      (** the scheduling policy this CPU dispatches with ("edf", "rm");
          emitted once at boot so traces are self-describing. The CPU-0
          stamp doubles as the run boundary for multi-run traces *)
  | Fault_plan of { plan : string }
      (** a named fault plan was armed on this run ([Hrt_fault]); marks
          the trace segment as fault-injected, which switches the
          verifier from hard-RT soundness to the graceful-degradation
          contract *)
  | Overload of { boundary : string }
      (** this CPU entered (or adjusted) overload mode: real-time
          guarantees below the named criticality are revoked. ["none"]
          marks the return to normal operation after recovery *)
  | Shed of { tid : int; thread : string; crit : string }
      (** an admitted real-time thread below the shed boundary was
          demoted to aperiodic, its constraints revoked *)
  | Demote of { tid : int; thread : string }
      (** a missed arrival was throttled: retired at the deadline instead
          of running late into others' slack *)
  | Recover of { tid : int; thread : string; crit : string }
      (** a shed thread was re-admitted with its original constraints *)
  | Idle  (** the CPU went idle *)

val kind : t -> string
(** Stable kebab-case tag, used as the metric and trace-event name. *)

val dur_ns : t -> Time.ns option
(** Duration for span events, [None] for instants. *)

val args : t -> (string * string) list
(** Payload fields as key/value strings (Chrome-trace [args]). *)

val of_parts :
  kind:string -> args:(string * string) list -> dur_ns:Time.ns option -> t option
(** Inverse of [kind]/[args]/[dur_ns]: rebuild the typed event from its
    exported parts. [None] when the kind is unknown or a payload field is
    missing or malformed. Round-trip law:
    [of_parts ~kind:(kind e) ~args:(args e) ~dur_ns:(dur_ns e) = Some e]. *)

val cls_name : cls -> string

val all_kinds : string list
(** Every tag [kind] can produce, one per constructor. *)
