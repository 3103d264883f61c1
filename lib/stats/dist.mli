(** The normal distribution's cumulative probability, which the yield
    targets read their predicted yields from. *)

val erf : float -> float
(** Abramowitz–Stegun 7.1.26-style rational approximation, |error| < 1.5e-7;
    exposed for tests. *)

val normal_cdf : mean:float -> sigma:float -> float -> float
