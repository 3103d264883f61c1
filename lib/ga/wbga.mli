(** The paper's weight-based genetic algorithm (§3.2).

    Each GA string carries the designable parameters {e and} the objective
    weights; the weights evolve with the design, so the population explores
    many scalarisation directions at once and its evaluation archive samples
    the whole performance trade-off.  The Pareto front is then extracted from
    the archive (§3.3). *)

type objective = { name : string; maximise : bool }

type entry = {
  params : float array;  (** decoded designable parameters *)
  objectives : float array;  (** raw objective values *)
  weights : float array;  (** decoded, normalised weights (eq. 4) *)
  fitness : float;  (** eq. 5 weighted normalised sum *)
}

type result = {
  archive : entry array;  (** every successfully evaluated individual *)
  front : entry array;
      (** non-dominated subset of the archive, sorted by the first
          objective *)
  evaluations : int;  (** total evaluation calls, including failed ones *)
  failures : int;  (** evaluations that returned [None] *)
  history : float array;  (** best fitness per generation *)
}

type snapshot = {
  ga : entry option Ga.snapshot;
  snap_failures : int;
  normalizer : Fitness.state;
}
(** Generation-boundary state: the GA loop state plus the WBGA-level
    failure count and fitness-normalisation bounds.  Restoring all three
    makes a resumed run bit-identical to an uninterrupted one. *)

val run :
  ?config:Ga.config ->
  ?pool:Yield_exec.Pool.t ->
  ?checkpoint:(snapshot -> unit) ->
  ?resume:snapshot ->
  param_ranges:Genome.range array ->
  objectives:objective array ->
  rng:Yield_stats.Rng.t ->
  evaluate:(float array -> float array option) ->
  unit ->
  result
(** [evaluate params] returns the raw objective values, or [None] when the
    underlying simulation fails; failed individuals receive [neg_infinity]
    fitness and are excluded from the archive and front.

    Each generation's [evaluate] calls fan out over [pool]'s domains (a
    one-job pool when absent), so [evaluate] must be safe to call
    concurrently and must not depend on call order; the GA's own RNG
    consumption, fitness normalisation and archive updates stay on the
    calling domain in deterministic order, so [result] and every
    checkpoint are bit-identical at any [jobs].

    [checkpoint] is invoked after every completed generation; [resume]
    restarts from such a snapshot.  A resumed run only adds the evaluations
    it actually performs to the [wbga.evaluations] metric, while the
    returned [result.evaluations] counts the whole logical run. *)

(** {2 Checkpoint serialisation}

    Bit-exact JSON codecs (floats as [%h] hex literals via
    {!Yield_resilience.Codec}). *)

val snapshot_to_json : snapshot -> Yield_obs.Json.t

val snapshot_of_json : Yield_obs.Json.t -> (snapshot, string) Stdlib.result

val result_to_json : result -> Yield_obs.Json.t

val result_of_json : Yield_obs.Json.t -> (result, string) Stdlib.result
