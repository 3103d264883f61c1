(** Facade over the telemetry subsystem: the pieces an entry point needs.

    Recording (spans, counters, histograms) is always on — it is cheap
    enough that the fast-scale flow pays well under 2 % — and no span
    event is kept in memory.  Nothing is written anywhere unless the
    stream is armed ({!start_stream}): it is the one file a run's spans
    and metrics leave the process through. *)

val set_verbose : bool -> unit
(** When on, every kept span prints a line to stderr as it closes (an
    indented live trace). *)

val start_stream : ?snapshot_every_s:float -> path:string -> unit -> unit
(** Arm the streaming sink: every kept span event is appended to [path]
    as it happens ([.jsonl] → JSONL, other [.json] → Chrome trace; see
    {!Stream.format_of_path}).  With [snapshot_every_s], periodic
    metrics-delta snapshots ride the same stream.  A no-op when a stream
    is already active (first caller wins, so CLI flags beat env/config).
    @raise Sys_error when the path cannot be opened.
    @raise Invalid_argument when [snapshot_every_s] is given with a
    Chrome stream, whose array holds trace events only. *)

val stream_active : unit -> bool

val stop_stream : unit -> unit
(** Final snapshot, final counter/histogram lines (JSONL format only),
    close the file.  A no-op when no stream is active.
    @raise Sys_error naming the path and the cause, once the stream is
    closed, when one of its writes failed (the stream wrote nothing after
    that write; the run itself went on). *)

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
    The stream raises as {!start_stream} does.
    @raise Invalid_argument on a malformed [span_sample] spec (a config
    built without [Config.resolve], which refuses it with C008). *)

val summary : unit -> string
(** Human-readable dump of the current counters and histograms. *)

val reset : unit -> unit
(** Restart span-key sequences and zero all metrics: a fresh slate between
    independent runs in one process.  Listeners and any active stream stay
    armed. *)
