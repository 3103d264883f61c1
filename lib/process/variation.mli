(** Statistical process variation: the foundry-model substitute.

    Two components, following the standard structure of foundry statistical
    decks (and the paper's ref [11]):

    - {b global} (inter-die) variation: one draw per Monte Carlo sample shifts
      VTH0, KP and lambda of all devices of a polarity together;
    - {b local mismatch} (intra-die): each transistor additionally receives an
      independent threshold and beta perturbation following Pelgrom's law,
      [sigma(dVth) = avt / sqrt (W L)], [sigma(dBeta/Beta) = abeta / sqrt (W L)].

    The default coefficients keep this standard structure but are calibrated
    so the resulting OTA performance spreads match the order of magnitude the
    paper's Table 2 reports (the actual foundry deck being proprietary);
    see DESIGN.md §2. *)

type global_spec = {
  sigma_vth_n : float;  (** V, one-sigma NMOS threshold shift *)
  sigma_vth_p : float;
  sigma_kp_rel_n : float;  (** relative one-sigma on NMOS kp *)
  sigma_kp_rel_p : float;
  sigma_lambda_rel : float;  (** relative one-sigma on lambda, both polarities *)
}

type mismatch_spec = {
  avt_n : float;  (** V * m  (e.g. 9.5 mV*um = 9.5e-9 V*m) *)
  avt_p : float;
  abeta_n : float;  (** m  (relative mismatch coefficient) *)
  abeta_p : float;
}

type spec = { global : global_spec; mismatch : mismatch_spec }

val default_spec : spec

val zero_spec : spec
(** All sigmas zero; Monte Carlo through it reproduces nominal exactly. *)

val scale_spec : float -> spec -> spec
(** Multiply every sigma by a factor (for sensitivity/ablation studies). *)

type global_draw = {
  dvth_n : float;
  dvth_p : float;
  dkp_rel_n : float;
  dkp_rel_p : float;
  dlambda_rel : float;
}

val draw_global : spec -> Yield_stats.Rng.t -> global_draw

val global_dims : int
(** Number of independent global components. *)

val global_draw_of_normals : spec -> float array -> global_draw
(** Build a global draw from [global_dims] standard-normal deviates, one
    per component in the order of {!global_draw}'s fields: how
    {!Sensitivity} places a draw at a chosen number of sigmas.
    @raise Invalid_argument on arity mismatch. *)

val nominal_global : global_draw
(** All-zero draw. *)

val mismatch_sigma_vth :
  spec -> Yield_spice.Mosfet.polarity -> w:float -> l:float -> float
(** Pelgrom sigma of dVth for a device geometry, [avt / sqrt (W L)]. *)

val mismatch_sigma_beta :
  spec -> Yield_spice.Mosfet.polarity -> w:float -> l:float -> float
(** Pelgrom sigma of dBeta/Beta for a device geometry,
    [abeta / sqrt (W L)]: the float the samplers multiply a deviate by,
    and the one the corner proof's parameter box is built from. *)

val perturb_model :
  spec -> global_draw -> Yield_stats.Rng.t ->
  w:float -> l:float -> Yield_spice.Mosfet.model -> Yield_spice.Mosfet.model
(** Apply the global draw plus a freshly sampled local mismatch to a device
    model. *)

val perturb_circuit :
  spec -> Yield_stats.Rng.t -> Yield_spice.Circuit.t -> Yield_spice.Circuit.t
(** One Monte Carlo instance of the circuit: draws a global sample, then an
    independent mismatch for every MOSFET.  The input circuit is unchanged. *)

(** {1 Batch-first per-sample overrides}

    The Monte Carlo inner loop instantiates a circuit once per front point
    and patches device models per sample ({!Yield_spice.Mna.models})
    instead of rebuilding the circuit.  The builders below consume random
    deviates in exactly the order the historical rebuild path
    ({!perturb_circuit} through [Circuit.map_devices]) did — reverse
    device-array order — so patching is bit-identical to rebuilding
    (test-pinned). *)

val overrides :
  spec -> Yield_stats.Rng.t -> Yield_spice.Circuit.t -> Yield_spice.Mna.models
(** One Monte Carlo sample as a per-device model override array: draws a
    global sample, then an independent mismatch for every MOSFET.  Consumes
    the same deviates as {!perturb_circuit}; feeding the result to
    {!apply_overrides} reproduces its output exactly. *)

val overrides_with_draw :
  spec -> global_draw -> Yield_stats.Rng.t -> Yield_spice.Circuit.t ->
  Yield_spice.Mna.models
(** Like {!overrides} but with an externally supplied global draw;
    mismatch is still drawn from [rng]. *)

val overrides_gen :
  spec -> (unit -> float) -> Yield_spice.Circuit.t -> Yield_spice.Mna.models
(** Like {!overrides} but with every standard-normal deviate supplied by
    the callback: the five global components (vth_n, vth_p, kp_n, kp_p,
    lambda) first, then a threshold and a beta mismatch deviate per MOSFET
    in the order {!perturb_circuit} visits devices (reverse device-array
    order).  The hook for truncated or quasi-random sampling — the
    corner-soundness property tests draw deviates conditioned to the
    ±k·sigma box this way.  (Replaces the retired [perturb_circuit_gen];
    compose with {!apply_overrides} for a full circuit.) *)

val apply_overrides :
  Yield_spice.Circuit.t -> Yield_spice.Mna.models -> Yield_spice.Circuit.t
(** Bake an override array into a fresh circuit (the input is unchanged).
    [apply_overrides c (overrides spec rng c)] is bit-identical to
    [perturb_circuit spec rng c] at equal RNG state. *)
