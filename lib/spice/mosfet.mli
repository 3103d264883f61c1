(** MOS transistor model.

    A single-equation EKV-style model: smooth from weak to strong inversion,
    with slope factor, body effect, and channel-length modulation.  It stands
    in for the BSim3v3 foundry models of the paper (see DESIGN.md §2): the
    quantities the optimisation flow depends on — gm, gds, gmb and the device
    capacitances as functions of W, L and bias — have the correct first-order
    behaviour.

    All voltages in the [eval] interface are source-referenced NMOS-convention
    values; PMOS devices are handled by the device layer flipping signs. *)

type polarity = Nmos | Pmos

type model = {
  polarity : polarity;
  vth0 : float;  (** zero-bias threshold magnitude, V (positive for both) *)
  kp : float;  (** transconductance parameter mu*Cox, A/V^2 *)
  gamma : float;  (** body-effect coefficient, sqrt(V) *)
  phi : float;  (** surface potential, V *)
  lambda0 : float;  (** channel-length modulation, um/V: lambda = lambda0/L[um] *)
  n_slope : float;  (** subthreshold slope factor *)
  cox : float;  (** gate-oxide capacitance, F/m^2 *)
  cgso : float;  (** gate-source overlap, F/m *)
  cgdo : float;  (** gate-drain overlap, F/m *)
  cj : float;  (** junction area capacitance, F/m^2 *)
  cjsw : float;  (** junction sidewall capacitance, F/m *)
  ext : float;  (** source/drain diffusion extension, m *)
}

val temperature_voltage : float
(** kT/q at 300 K. *)

type region = Cutoff | Weak | Saturation | Triode

type op = {
  ids : float;  (** drain current, A (NMOS convention: positive into drain) *)
  gm : float;  (** dIds/dVgs, S *)
  gds : float;  (** dIds/dVds, S *)
  gmb : float;  (** dIds/dVbs, S *)
  vth : float;  (** body-adjusted threshold, V *)
  vdsat : float;  (** saturation voltage, V *)
  vgs : float;
  vds : float;
  vbs : float;
  region : region;
  cgs : float;  (** F *)
  cgd : float;
  cdb : float;
  csb : float;
}

val region_to_string : region -> string

val eval : model -> w:float -> l:float -> vgs:float -> vds:float -> vbs:float -> op
(** Evaluate at a bias point.  [w] and [l] in metres.  Handles [vds < 0] by
    source/drain exchange so Newton iterations may pass through reversal.
    @raise Invalid_argument for non-positive [w] or [l]. *)

(** {1 EKV interpolation helpers}

    The scalar functions {!eval} is built from: overflow-safe
    [softplus x = ln (1 + e^x)] and its derivative [sigmoid], the EKV
    interpolation function [ekv_f x = ln^2 (1 + e^(x/2))] and its
    derivative [ekv_f'].  The corner proofs' interval images (Corner_lint)
    wrap these, so they evaluate exactly these floats at their endpoints. *)

val softplus : float -> float
val sigmoid : float -> float
val ekv_f : float -> float
val ekv_f' : float -> float

val with_deltas : model -> dvth:float -> dkp_rel:float -> dlambda_rel:float -> model
(** [with_deltas m ~dvth ~dkp_rel ~dlambda_rel] is [m] with threshold shifted
    by [dvth] volts, [kp] scaled by [1 + dkp_rel] and [lambda0] scaled by
    [1 + dlambda_rel]; the hook used by process-variation sampling. *)
