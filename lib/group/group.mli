(** Thread groups (paper Section 4.2).

    Threads can create, join, leave, and destroy named groups; a group
    carries shared state (notably the timing constraints all members want).
    Join/leave serialize on the group's spin lock, so their cost grows
    with contention — exactly the linear behaviour of Fig 10(a).

    Group operations are exposed as {e body fragments}: values of type
    {!Hrt_core.Thread.body} that perform the operation (consuming
    simulated time) and then return [Exit], which {!Hrt_core.Program.seq}
    interprets as "fragment done, continue with the next". *)

open Hrt_core

type t

val create : Scheduler.t -> name:string -> t
(** Create (and register) a named group. *)

val find : Scheduler.t -> string -> t option
val destroy : t -> unit
(** Unregister the group. Raises [Invalid_argument] if members remain. *)

val dispose : t -> unit
(** Unregister unconditionally (end-of-experiment cleanup: the registry is
    global, so a forgotten group would retain its whole simulated system). *)

val name : t -> string
val size : t -> int
val members : t -> Thread.t list
(** In join order. *)

val scheduler : t -> Scheduler.t

val join : t -> Thread.body
(** Fragment: join the group (serialized on the group lock; cost is
    position-dependent under contention). *)

val leave : t -> Thread.body

val set_constraints : t -> Constraints.t option -> unit
(** Attach shared constraints to the group (leader-side state). *)

val constraints : t -> Constraints.t option

val lock : t -> Thread.t -> unit
(** Leader lock for group admission. Raises [Invalid_argument] if already
    locked by another thread. *)

val unlock : t -> Thread.t -> unit
val locked_by : t -> Thread.t option
