(** A streaming histogram with O(1) record cost.

    Exact count/sum/min/max plus quantile estimates from a fixed-size
    reservoir (uniform sampling with a deterministic generator, so repeated
    runs summarise identically).  Safe to record from multiple domains. *)

type t

type summary = {
  count : int;
  sum : float;
  mean : float;  (** nan when empty *)
  min : float;  (** nan when empty (so JSON sinks emit null, not a fake 0) *)
  max : float;  (** nan when empty *)
  p50 : float;  (** nan when empty *)
  p90 : float;
  p95 : float;
  p99 : float;
}

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the quantile reservoir (default 2048).  Up to
    [capacity] observations the quantiles are exact. *)

val observe : t -> float -> unit

val observe_int : t -> int -> unit
(** [observe_int t n] is [observe t (float_of_int n)], with nothing
    allocated: a count observed from another unit crosses as an int. *)

val count : t -> int

val summarize : t -> summary

val quantile : t -> float -> float
(** [quantile t q] for [q] in [0, 1]; linear interpolation between order
    statistics of the reservoir.  0. when empty. *)

val quantile_of_sorted : float array -> float -> float
(** The interpolation rule behind {!quantile} and {!summarize}, exposed for
    consumers holding their own exact sorted sample (e.g. the load
    generator's latency array): linear interpolation between order
    statistics, 0. on an empty array. *)

val reset : t -> unit
