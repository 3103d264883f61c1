(** Facade over the telemetry subsystem: the pieces an entry point needs.

    Recording (spans, counters, histograms) is always on — it is cheap
    enough that the fast-scale flow pays well under 2 % — and memory is
    bounded regardless of run length: span events live in a fixed-size
    ring ({!Span.set_ring_capacity}).  Nothing is written anywhere unless
    a streaming sink is armed ({!start_stream}) or {!flush} is called
    with explicit paths at exit. *)

val set_verbose : bool -> unit
(** When on, every kept span prints a line to stderr as it closes (an
    indented live trace). *)

val start_stream : ?snapshot_every_s:float -> path:string -> unit -> unit
(** Arm the streaming sink: every kept span event is appended to [path]
    as it happens ([.jsonl] → JSONL, other [.json] → Chrome trace; see
    {!Stream}).  With [snapshot_every_s], periodic metrics-delta
    snapshots ride the same stream.  A no-op when a stream is already
    active (first caller wins, so CLI flags beat env/config).
    @raise Sys_error when the path is unwritable. *)

val stream_active : unit -> bool

val stop_stream : unit -> unit
(** Final snapshot, final counter/histogram lines (JSONL format only),
    close the file.  A no-op when no stream is active. *)

val ensure_telemetry :
  ?trace_stream:string ->
  ?span_sample:string ->
  ?snapshot_every_s:float ->
  unit ->
  unit
(** Idempotently arm telemetry from a config's values: the sampler is only
    configured when no spec is installed, the stream only started when
    none is active — so the first caller (the CLI, with its resolved
    settings) stays in charge when [Flow.run] arms the same config again.
    A malformed [span_sample] spec (from a config built without
    [Config.resolve], which refuses it) warns on stderr instead of
    raising. *)

val flush : ?trace:string -> ?metrics:string -> unit -> unit
(** Write the Chrome trace and/or the JSONL metric+event log to the given
    paths (see {!Sink}).  Omitted sinks write nothing.  These exit-time
    sinks see only the span ring window; a {!start_stream} file has the
    complete event log. *)

val summary : unit -> string
(** Human-readable dump of the current metric snapshot and span events,
    with a note when the ring has rotated events out. *)

val reset : unit -> unit
(** Clear span events, restart span-key sequences and zero all metrics: a
    fresh slate between independent runs in one process.  Listeners and
    any active stream stay armed. *)
