(** Generic Monte Carlo driver and yield estimation.

    Every batch is instrumented: a ["mc.batch"] span (plus one
    ["exec.worker"] span per participating domain of a parallel batch, whose
    durations give the per-domain utilisation) and the
    ["mc.samples.attempted"] / ["mc.samples.failed"] counters in
    {!Yield_obs.Metrics}. *)

type 'a counted = 'a Yield_exec.Pool.counted = {
  results : 'a array;  (** the successful samples, in sample order *)
  attempted : int;  (** how many samples were drawn ([= samples]) *)
  failed : int;  (** how many returned [None] (e.g. DC non-convergence) *)
}
(** A batch outcome that keeps the failure accounting: [attempted] is the
    honest denominator a yield estimate needs. *)

val run :
  ?pool:Yield_exec.Pool.t -> samples:int -> rng:Yield_stats.Rng.t ->
  (Yield_stats.Rng.t -> 'a option) -> 'a counted
(** [run ?pool ~samples ~rng f] calls [f] with an independent child
    stream per sample, fanned out over [pool] (a one-job pool when
    absent), and collects the successful results in sample order together
    with the attempted/failed counts.  Child streams are split in sample
    order {e before} the fan-out, so the outcome is the same at any
    [jobs] — including which samples a fault schedule injects away.  [f]
    must not share mutable state across calls. *)

type yield_estimate = {
  pass : int;
  total : int;
  yield : float;  (** pass / total *)
  ci_low : float;  (** 95 % Wilson confidence bounds *)
  ci_high : float;
}

val estimate_yield : pass:int -> total:int -> yield_estimate
(** @raise Invalid_argument when [total = 0] or [pass] outside [0, total]. *)

val yield_of : ('a -> bool) -> 'a array -> yield_estimate
(** @raise Invalid_argument on an empty result array — prefer
    {!yield_of_counted}, which degrades instead of raising. *)

type yield_outcome =
  | Estimate of yield_estimate
  | No_valid_samples of { attempted : int; failed : int }
      (** every sample failed: there is no denominator, so the flow reports
          the yield as unknown instead of crashing *)

val yield_of_counted : ('a -> bool) -> 'a counted -> yield_outcome
(** Total-failure-safe yield estimate over a counted batch. *)

val yield_outcome_to_string : yield_outcome -> string

val spread_pct : float array -> nominal:float -> float
(** The paper's variation measure: the larger one-sided deviation of the
    sample 3-sigma envelope from the nominal value, as a percentage of the
    nominal — i.e. the dGain/dPM columns of Table 2.  Location and scale are
    estimated robustly (median, IQR/1.349) so a single sample jumping to a
    different operating branch does not dominate the envelope.
    @raise Invalid_argument on empty samples or zero nominal. *)
