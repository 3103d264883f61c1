(** Small-signal noise analysis.

    Models the standard sources — resistor thermal noise [4kT/R], MOSFET
    channel thermal noise [4 k T gamma gm] (gamma = 2/3) and optional 1/f
    noise [kf gm^2 / (Cox W L f)] — and propagates each to the output
    through the linearised network, one AC solve per source per frequency.
    Output PSDs add as uncorrelated powers. *)

type flicker = {
  kf_n : float;  (** NMOS flicker coefficient, V^2 F (typ. 1e-24) *)
  kf_p : float;
}

val no_flicker : flicker

type contribution = {
  device : string;
  kind : [ `Thermal | `Flicker ];
  psd_v2_per_hz : float;  (** contribution to the output PSD, V^2/Hz *)
}

type point = {
  freq : float;
  total_v2_per_hz : float;
  contributions : contribution list;  (** sorted, largest first *)
}

val output_noise :
  ?flicker:flicker -> ?sys:Mna.sys -> ?models:Mna.models -> Circuit.t ->
  Dcop.t -> out:Device.node -> freqs:float array -> point array
(** Output-referred noise spectral density at each frequency.  [sys] is
    the {!Mna.sys} solver session of the circuit's topology; without it the
    call builds a dense one for itself.  [models] applies per-sample
    MOSFET model overrides (they set the flicker polarity/Cox scaling —
    the small-signal network itself comes from the operating points in the
    {!Dcop.t}). *)

val input_referred :
  point array -> gain:Ac.bode -> (float * float) array
(** [(freq, PSD_in)] pairs: output PSD divided by the squared transfer
    magnitude at each frequency.
    @raise Invalid_argument when the frequency grids differ. *)

val integrate_rms : (float * float) array -> float
(** Root of the PSD integrated over the grid (trapezoidal in linear
    frequency), in volts RMS. *)

val temperature : float
(** Analysis temperature, K (300). *)
