(** Transient analysis: fixed-step trapezoidal integration with a
    backward-Euler start-up step, Newton iteration at every time point.

    Capacitors (explicit and MOS intrinsic/junction) are handled through
    companion models.  MOS capacitances are evaluated quasi-statically at
    the previous accepted time point: adequate for the slew-rate and
    settling measurements this library needs, and documented as an
    approximation relative to a charge-conserving formulation. *)

type options = {
  t_stop : float;  (** end time, s *)
  dt : float;  (** fixed step, s *)
}
(** Each time point runs at most 61 Newton iterations to a 1e-7 V
    tolerance. *)

val options : t_stop:float -> dt:float -> unit -> options
(** @raise Invalid_argument for non-positive times. *)

type t = {
  times : float array;
  solutions : float array array;  (** one unknown vector per time point *)
  layout : Mna.layout;
}

type error = Dc_failed of Dcop.error | Step_failed of { time : float }

val error_to_string : error -> string

val run :
  ?sys:Mna.sys -> ?models:Mna.models -> options -> Circuit.t ->
  (t, error) Stdlib.result
(** Solves the DC operating point (waveform values at t = 0), then
    integrates to [t_stop], all in one {!Mna.sys} solver session: [sys]
    when given (it must have the circuit's topology), else a dense one
    built once for the run.  [models] applies per-sample MOSFET model
    overrides (see {!Mna.models}). *)

val voltage : t -> Device.node -> float array
(** Waveform of one node voltage across all time points. *)

val voltage_by_name : t -> Circuit.t -> string -> float array
