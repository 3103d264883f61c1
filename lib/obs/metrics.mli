(** The process-wide metrics registry: named counters and histograms.

    Handles are cheap to hold and O(1) to record through; look them up once
    (at module initialisation for hot paths) and keep them.  Two lookups of
    the same name return the same instrument, so independent modules share
    a metric by naming convention (e.g. [Flow] reads the
    ["wbga.evaluations"] counter that [Wbga] bumps).

    Counters are atomic and histograms lock internally, so recording from
    multiple domains is safe. *)

type counter

val counter : string -> counter
(** Find-or-create the named counter. *)

val incr : counter -> unit

val add : counter -> int -> unit

val value : counter -> int

val histogram : ?capacity:int -> string -> Histogram.t
(** Find-or-create the named histogram ([capacity] only applies on
    creation). *)

val observe : Histogram.t -> float -> unit

val observe_int : Histogram.t -> int -> unit
(** {!observe} of a count, which allocates nothing: the hot paths record
    their iteration and attempt counts this way. *)

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  histograms : (string * Histogram.summary) list;  (** sorted by name *)
}

val snapshot : unit -> snapshot

val reset : unit -> unit
(** Zero every counter and empty every histogram.  Handles stay valid (the
    registry keeps the instruments); intended for tests and for isolating
    consecutive runs inside one process. *)
