(** Deterministic pseudo-random number generation.

    Every stochastic stage of the flow (GA, Monte Carlo, mismatch sampling)
    takes an explicit [Rng.t] so that runs are reproducible and independent
    streams can be split off for parallel-in-spirit subtasks without
    correlations.  The generator is xoshiro256++ seeded through splitmix64.

    {b State and allocation.}  A generator is one flat 41-byte buffer:
    the four 64-bit words of xoshiro's state, the bits of the cached
    second Box–Muller deviate and a byte saying whether one is cached.
    Drawing reads and writes it in place, so a draw allocates only what
    it returns: [float], [uniform], [gaussian] and [normal] 2 words (the
    boxed float a call from another module receives), [int],
    {!gaussian_into} and {!shuffle_in_place} nothing.  {!create}, {!split}, {!copy} and
    {!of_state} allocate the new buffer, 7 words.  A test pins the
    stream's digest. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed; equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] derives a new, statistically independent generator and advances
    [t].  Used to give each Monte Carlo sample / GA island its own stream.
    It allocates only the child. *)

val copy : t -> t
(** An independent generator in [t]'s state, cached deviate included. *)

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
    bit-identically.  Its fields are the generator's words as they are
    stored, so a snapshot written before the state became a flat buffer
    restores to the same stream. *)

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

val gaussian_into : t -> float array -> int -> unit
(** [gaussian_into t a i] is [a.(i) <- gaussian t], with the deviate
    never boxed: a caller in another module that draws in a loop reads it
    back from [a].  It allocates nothing. *)

val normal : t -> mean:float -> sigma:float -> float
(** [normal t ~mean ~sigma] is [mean +. (sigma *. gaussian t)]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)
