(** Metrics registry: counters, gauges and histograms keyed by name plus an
    optional per-CPU label.

    The registry's name lookup is for first-use registration and export.
    Hot paths resolve a handle once and keep it: {!Sink} caches one per
    (series, cpu) it derives from events. Updating a handle is a field
    write (counter/gauge) or a sample append (histogram) and allocates
    nothing. Registering the same name with a different instrument kind
    raises [Invalid_argument]. *)

type t

type counter
type gauge
type histo

val create : unit -> t

val counter : t -> ?cpu:int -> string -> counter
val gauge : t -> ?cpu:int -> string -> gauge
val histo : t -> ?cpu:int -> string -> histo

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit

val watermark : gauge -> float -> unit
(** [watermark g v] sets [g] to [max g v] (first call always sets). *)

val gauge_value : gauge -> float

val observe : histo -> float -> unit
(** Raises [Invalid_argument] on NaN (see {!Hrt_stats.Percentile.add}). *)

val histo_count : histo -> int
val histo_max : histo -> float

val histo_percentile : histo -> float -> float
(** Exact percentile over the recorded samples; 0.0 when empty. *)

val size : t -> int
(** Number of registered instruments. *)

val merge : t -> t -> unit
(** [merge dst src] folds every instrument of [src] into [dst]: counters
    add, gauges take the source value when it was ever set, histograms
    replay every source sample (exact percentiles, Welford summaries in
    source order). Instruments missing from [dst] are created in [src]'s
    creation order; instruments already present keep their single
    creation-order entry, so merging per-job registries after a parallel
    sweep never double-counts a {!rows} line. Raises [Invalid_argument]
    when the same key names different instrument kinds. [src] is not
    modified; merging a registry into itself is a no-op. *)

val header : string list
(** Column names matching {!rows}. *)

val rows : t -> string list list
(** One row per instrument, sorted by (name, cpu), ready for CSV or table
    rendering. *)
