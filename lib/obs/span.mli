(** Hierarchical timed spans, streamed over a live event bus.

    A span's close feeds two consumers:

    - the ["span.<name>"] histogram of {!Metrics} (always, even for
      sampled-out spans), so per-stage statistics are complete;
    - every {!subscribe}d live listener (the verbose printer and the
      stream), which also sees an [Opened] event when the span begins.

    Nothing else keeps an event: a run's span log is whatever a listener
    wrote, so in-process telemetry memory is O(1) in run length.  Nesting
    is tracked per domain ([Domain.DLS]) and carried on the event; events
    from worker domains reach the same listeners, so nothing is lost when
    a domain is joined.

    High-frequency spans carry a deterministic [key] (batch ordinal,
    generation number, worker slot) assigned before any fan-out;
    {!Sampler} decides keep/drop from the pure [(name, key)] hash, so the
    kept span set is identical at any [--jobs] count. *)

type event = {
  name : string;
  ts_us : float;  (** start, microseconds since the process epoch *)
  dur_us : float;  (** 0 on [Opened] bus events *)
  tid : int;  (** recording domain's id *)
  depth : int;  (** nesting depth within that domain *)
  key : int;  (** sampling identity; 0 for unkeyed spans *)
}

type phase = Opened | Closed

val with_ : name:string -> ?key:int -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  The span closes, and its listeners and
    histogram see it, even when the thunk raises. *)

val timed : name:string -> ?key:int -> (unit -> 'a) -> 'a * float
(** Like {!with_} but also returns the measured duration in seconds. *)

val next_key : string -> int
(** The next per-name ordinal (0, 1, 2, ...), for instrumentation sites
    whose span has no natural index.  Call it in the coordinator before
    fanning out, so the key is interleaving-independent.  {!reset_keys}
    restarts every sequence. *)

val reset_keys : unit -> unit

val subscribe : (phase -> event -> unit) -> int
(** Register a live sink called on every kept span open and close, from
    the recording domain.  Returns an id for {!unsubscribe}.  Listeners
    must be fast and must not raise. *)

val unsubscribe : int -> unit
