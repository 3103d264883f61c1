(** The telemetry stream, the one way a run's spans and metrics leave the
    process: events are appended to disk as they happen, so a long run's
    telemetry memory stays O(1) while the full event log lives in the file.

    Two formats:
    - [Jsonl] — one JSON object per line in {!Sink}'s line shapes
      ([{"type":"span",...}], plus ["span.open"] lines when the caller
      forwards [Opened] phases, the final ["counter"] and ["histogram"]
      lines) and ["snapshot"] lines from {!Snapshot}.
    - [Chrome] — an incrementally grown [trace_event] array.  The opening
      [\[] is written eagerly and the closing bracket only on {!close};
      Chrome and Perfetto load the unterminated array a crash leaves
      behind.

    Write discipline: one event is one buffered write followed by a flush,
    so a kill loses at most a partial final line.  {!read_jsonl} tolerates
    exactly that — an unterminated, unparseable tail is dropped and
    reported, while a corrupt line in the middle of the file still raises
    (that is damage, not crash debris).

    A write never raises: the first failed write (a full disk) is kept in
    {!error} and the stream writes nothing after it. *)

type format = Jsonl | Chrome

type t

val format_of_path : string -> format
(** The format a path's suffix selects: [.jsonl] streams JSONL, any other
    [.json] a Chrome trace, everything else JSONL. *)

val create : path:string -> unit -> t
(** Truncate-and-open [path] for streaming, in its {!format_of_path}.
    @raise Sys_error when the path cannot be opened. *)

val path : t -> string

val format : t -> format

val write_json : t -> Json.t -> unit
(** Append one line (JSONL) or one array element (Chrome).  Thread-safe;
    a no-op after {!close} or a failed write. *)

val write_event : t -> Span.phase -> Span.event -> unit
(** Append a span event in the stream's format.  Chrome streams ignore
    [Opened] phases (complete events carry the duration at close). *)

val close : t -> unit
(** Flush, terminate the Chrome array, and close the fd.  Idempotent. *)

val error : t -> string option
(** The first write that failed, with the system's reason; [None] while
    every write (and the close) succeeded. *)

type reread = {
  lines : Json.t list;
  truncated : bool;  (** a partial final line was dropped *)
}

val read_jsonl : path:string -> reread
(** Parse a streamed JSONL file back, dropping an unterminated final line.
    @raise Json.Parse_error on a malformed {e complete} line.
    @raise Sys_error when the file cannot be read. *)

val spans_of_lines : Json.t list -> Span.event list
(** The [{"type":"span"}] lines of a re-read stream, decoded (in file
    order, i.e. span-close order). *)
