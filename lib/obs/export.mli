(** Exporters: Chrome-trace JSON for {!Tracer} buffers, CSV and tables for
    {!Metrics} registries.

    The trace output is a valid JSON array with one event object per line —
    the Chrome trace-event format — and loads directly in chrome://tracing
    and Perfetto (one process per simulated CPU, one track per thread). *)

val chrome_json : Tracer.record -> string
(** A single trace-event object (no trailing newline or comma). *)

val chrome_lines : Tracer.t -> string list
(** The full file as lines: "[", per-CPU process-name metadata, one event
    per line, "]". *)

val write_chrome_trace : Tracer.t -> path:string -> unit

val write_metrics_csv : Metrics.t -> path:string -> unit
(** CSV with {!Metrics.header} as the header row. *)

val json_escape : string -> string
