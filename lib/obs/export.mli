(** Exporters over the ambient {!Trace} and {!Metrics} state.

    Every JSON document here is built as a {!Json.t} and printed by
    {!Json.to_string}: compact, single-line, fields in a fixed order.

    Three formats:
    - {!text_summary}: human-readable metric values plus a per-span-name
      rollup (calls / total time / allocation);
    - {!metrics_json} and {!spans_json}: machine-readable JSON;
    - {!chrome_json}: the Chrome [trace_event] format (JSON object with a
      [traceEvents] array of complete ["X"] events plus thread-name
      metadata), loadable in [chrome://tracing] and Perfetto.  Each worker
      domain renders as its own track. *)

val text_summary : unit -> string

val metric_value : Metrics.value -> Json.t
(** One instrument's value: a counter as an integer, a gauge as a number,
    an info as a string, a histogram as an object with [count], [sum],
    [max] and [buckets] (bucket lower bound, as a string key, to sample
    count).  {!metrics_json} and the daemon's diagnostics both use it. *)

val metrics_json : ?prefix:string -> unit -> string
(** The registry as [{"metrics": {name: value, ...}}]; [prefix] restricts
    to instruments whose name starts with it. *)

val spans_json : unit -> string
(** Recorded spans as a JSON array (native format: track, depth, start_ns,
    dur_ns, GC words, args). *)

val span_json : Trace.span -> string
(** One span as a JSON object (the element format of {!spans_json});
    streaming sinks emit one of these per line. *)

val prometheus_text : unit -> string
(** The registry in Prometheus exposition format (registry dots become
    underscores; histograms render cumulative [_bucket]/[_sum]/[_count]
    series; infos render as a labeled constant-1 gauge).  The daemon's
    live metrics endpoint serves this. *)

val chrome_json : unit -> string

val write_file : string -> string -> unit
(** [write_file path contents] with a trailing newline. *)
