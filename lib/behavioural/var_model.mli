(** The variation model (§3.4): per-Pareto-point Monte Carlo spreads stored
    as the paper's [gain_delta.tbl] / [pm_delta.tbl] one-input tables. *)

type point = {
  gain_db : float;  (** nominal gain of the Pareto design *)
  pm_deg : float;
  dgain_pct : float;  (** Table 2's dGain: 3-sigma spread as % of nominal *)
  dpm_pct : float;
  mc_samples : int;  (** successful MC samples behind the estimate *)
}

type t

val create : ?control:string -> ?bins:int -> point array -> t
(** Default control ["3E"] (cubic, no extrapolation).

    Each table's knots are denoised before the spline fit: points are
    aggregated into at most [bins] (default 24) equal-population bins along
    that table's own abscissa (gain for the dGain table, PM for the dPM
    table), and knots closer than 1e-3 of the span are pooled.  Monte Carlo
    spread estimates carry sampling noise, and a cubic spline through
    hundreds of noisy, nearly-coincident abscissae rings without bound;
    binning keeps the ["3E"] semantics on a stable knot set.
    @raise Invalid_argument with fewer than two points. *)

val points : t -> point array
(** The input points, sorted by gain. *)

val gain_domain : t -> float * float
(** Query range of the dGain table. *)

val pm_domain : t -> float * float
(** Query range of the dPM table. *)

val dgain_at : t -> gain_db:float -> float
(** [gain_delta = $table_model(gain, "gain_delta.tbl", "3E")].  Spread
    estimates are non-negative by construction, so interpolation undershoot
    is clamped at zero.
    @raise Yield_table.Table1d.Out_of_range outside the sampled gains. *)

val dpm_at : t -> pm_deg:float -> float
(** [pm_delta = $table_model(pm, "pm_delta.tbl", "3E")]. *)

val to_table : t -> Yield_table.Tbl_io.table
(** Columns: gain pm dgain_pct dpm_pct mc_samples. *)

val of_table : ?control:string -> Yield_table.Tbl_io.table -> t
