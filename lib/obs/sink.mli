(** The line encoders of the telemetry stream, and the text summary.

    A JSONL stream ({!Stream}) is made of these objects: one per counter
    and per histogram summary at the end of the run, one per span close.
    They are pure, so serialisation is tested without touching the global
    registries. *)

val histogram_fields : Histogram.summary -> (string * Json.t) list
(** The canonical JSON field list of a histogram summary
    (count/sum/mean/min/max/p50/p90/p95/p99) — the single definition every
    sink and the bench harness share.  Non-finite values (the nan
    min/max/quantiles of an empty histogram) serialise as [null]. *)

val counter_json : string * int -> Json.t
(** One [{"type":"counter",...}] line object. *)

val histogram_json : string * Histogram.summary -> Json.t
(** One [{"type":"histogram",...}] line object (fields from
    {!histogram_fields}). *)

val span_json : Span.event -> Json.t
(** One [{"type":"span",...}] line object, as a JSONL stream writes it. *)

val span_of_json : Json.t -> Span.event option
(** Inverse of {!span_json}; [None] when required fields are missing.  A
    missing [key] (logs from before span keys existed) decodes as 0. *)

val text_of : Metrics.snapshot -> string
(** An aligned human-readable summary of the counters and histograms. *)
