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

(** {1 Per-sample models in a buffer}

    The Monte Carlo inner loop instantiates a circuit once per front point
    and gives each sample its own models in a flat buffer
    ({!Yield_spice.Mna.models}: device [di]'s varied [vth0], [kp] and
    [lambda0] at [3 di], [3 di + 1] and [3 di + 2]) instead of rebuilding
    the circuit or building a model record.  A session sample borrows the
    buffer from its solver session ({!Yield_spice.Mna.borrow_models}) and
    draws into it with {!draw_into}, which allocates nothing.  The draws
    below consume random deviates in exactly the order the historical
    rebuild path ({!perturb_circuit} through [Circuit.map_devices]) did —
    the five globals lambda first and vth_n last, then each MOSFET's
    threshold and beta deviates in reverse device-array order — and compute
    the same floats ({!Yield_spice.Mosfet.apply_deltas}), so a sample
    assembled from the buffer is bit-identical to the rebuilt circuit
    (test-pinned). *)

val draw_into :
  spec -> Yield_stats.Rng.t -> Yield_spice.Circuit.t -> Yield_spice.Mna.models ->
  unit
(** [draw_into spec rng circuit models] draws one Monte Carlo sample into
    [models]: a global draw, then an independent mismatch for every
    MOSFET, writing each MOSFET's three slots (the others are left as
    they were).  It consumes the deviates of {!perturb_circuit} and
    allocates nothing (a circuit without devices aside).
    @raise Invalid_argument when [models] holds fewer than 3 floats a
    device. *)

val overrides :
  spec -> Yield_stats.Rng.t -> Yield_spice.Circuit.t -> Yield_spice.Mna.models
(** {!draw_into} a fresh buffer of 3 floats a device (the slots of
    devices that are not MOSFETs read 0).  Feeding the result to
    {!apply_overrides} reproduces {!perturb_circuit}'s output exactly. *)

val global_into :
  global_draw -> Yield_spice.Circuit.t -> Yield_spice.Mna.models -> unit
(** [global_into draw circuit models] writes each MOSFET's models under
    the global [draw] alone, with no mismatch and no random stream: how
    {!Sensitivity} evaluates a draw placed at chosen sigmas.
    @raise Invalid_argument as {!draw_into}. *)

val overrides_gen :
  spec -> (unit -> float) -> Yield_spice.Circuit.t -> Yield_spice.Mna.models
(** Like {!overrides} but with every standard-normal deviate supplied by
    the callback: the five global components (vth_n, vth_p, kp_n, kp_p,
    lambda) first, then a threshold and a beta mismatch deviate per MOSFET
    in the order {!perturb_circuit} visits devices (reverse device-array
    order).  The hook for truncated or quasi-random sampling — the
    corner-soundness property tests draw deviates conditioned to the
    ±k·sigma box this way.  (Compose with {!apply_overrides} for a full
    circuit.) *)

val apply_overrides :
  Yield_spice.Circuit.t -> Yield_spice.Mna.models -> Yield_spice.Circuit.t
(** Bake a buffer into a fresh circuit (the input is unchanged): each
    MOSFET's model rebuilt from its three slots
    ({!Yield_spice.Mosfet.with_params}).
    [apply_overrides c (overrides spec rng c)] is bit-identical to
    [perturb_circuit spec rng c] at equal RNG state.
    @raise Invalid_argument as {!draw_into}. *)
