(** Deterministic pseudo-random number generation.

    Every stochastic stage of the flow (GA, Monte Carlo, mismatch sampling)
    takes an explicit [Rng.t] so that runs are reproducible and independent
    streams can be split off for parallel-in-spirit subtasks without
    correlations.  The generator is xoshiro256++ seeded through splitmix64. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed; equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and advances
    [t].  Used to give each Monte Carlo sample / GA island its own stream. *)

val copy : t -> t

type state = {
  s0 : int64;
  s1 : int64;
  s2 : int64;
  s3 : int64;
  cached_gaussian : float option;
      (** the unemitted second Box–Muller deviate, if any — without it a
          restored stream would diverge at the next [gaussian] call *)
}
(** A complete, serialisable snapshot of a generator.  Used by the
    checkpoint/resume machinery: restoring the state continues the stream
    bit-identically. *)

val save : t -> state

val restore : t -> state -> unit
(** Overwrite [t] in place with the saved state. *)

val of_state : state -> t

val float : t -> float
(** Uniform in [0, 1) with 53-bit resolution. *)

val uniform : t -> float -> float -> float
(** [uniform t a b] is uniform in [a, b). *)

val int : t -> int -> int
(** [int t n] is uniform in [0, n).  @raise Invalid_argument if [n <= 0]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller, one value per call, cached pair). *)

val normal : t -> mean:float -> sigma:float -> float

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)
