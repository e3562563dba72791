(** The one schema, reader and gate behind [hrt_sim bench <suite>].

    A suite's measurement is a flat list of {!row}s. The artifact
    ([BENCH_<suite>.json], schema [hrt-bench/2]) is a header recording
    the suite and the run's circumstances, then one row object per line:

    {v
{
  "schema": "hrt-bench/2",
  "suite": "admit",
  "quick": false,
  "jobs": 4,
  "host_cores": 2,
  "ocaml": "5.1.1",
  "rows": [
    { "metric": "warm_queries_per_sec", "value": 153731, "unit": "1/s", "better": "higher" },
    { "metric": "identical", "value": 1, "unit": "flag", "better": "higher" }
  ]
}
    v}

    Header fields other than [suite] are optional, so a baseline written
    before a field existed reads back without inventing it. The reader
    accepts exactly this layout and nothing looser; the repo has no JSON
    dependency. *)

type better = Higher | Lower

type row = {
  metric : string;
  value : float;
  unit : string;
  better : better;
      (** Which way is an improvement. Workload sizes carry [Higher] by
          convention; only gated metrics' direction is ever consulted. *)
}

val higher : string -> unit:string -> float -> row
val lower : string -> unit:string -> float -> row

type t = {
  suite : string;
  quick : bool option;
  jobs : int option;
  host_cores : int option;
  ocaml : string option;
  rows : row list;
}

val make : suite:string -> quick:bool -> jobs:int -> row list -> t
(** Stamps the running host's [Domain.recommended_domain_count] and OCaml
    version into the header. *)

val to_string : t -> string
(** Raises [Invalid_argument] on a non-finite value or on a string that
    would need escaping (a quote, a backslash or a control character). *)

val of_string : string -> (t, string) result
(** The inverse of {!to_string}: [Error] names the first malformed line. *)

val write : path:string -> t -> unit
val read : string -> (t, string) result

val row_to_string : row -> string
(** One aligned line for the terminal: metric, value, unit. *)

val verdict :
  gated:string list ->
  floors:(string * float) list ->
  ?baseline:t ->
  t ->
  (string list, string list) result
(** Decide a run. Always: an [identical] row other than 1 fails (a
    parallel or warm run diverged from its sequential or cold twin).
    With [baseline]: its suite must match; each [gated] metric must be
    present in both, positive in the baseline, and no more than 20 %
    worse in the direction of the measured row's [better];
    each [(metric, floor)] needs the measured value [>= floor]. [Ok]
    carries one note per passed gate, [Error] every failure. *)
