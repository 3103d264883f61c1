(** Open-loop testbench for the OTA (the paper's §4.2 objective-function
    evaluation): DC feedback through a large resistor with an AC-grounding
    capacitor on the inverting input — the standard Spectre loop-breaking
    arrangement — a load capacitor, and an AC sweep from which open-loop gain
    and phase margin are extracted.  {!Testbench.Make} applied to {!Ota},
    with {!Testbench}'s records and measurements re-exported so downstream
    modules can build conditions directly. *)

type conditions = Testbench.conditions = {
  tech : Yield_process.Tech.t;
  vcm : float;
  load_cap : float;
  f_lo : float;
  f_hi : float;
  points_per_decade : int;
  min_unity_gain_hz : float;
}

type perf = Testbench.perf = {
  gain_db : float;
  phase_margin_deg : float;
  unity_gain_hz : float;
  f3db_hz : float;
  rout_est : float;
}

type step_perf = Testbench.step_perf = {
  slew_v_per_us : float;
  settling_1pct_s : float option;
  overshoot_pct : float;
  final_error_v : float;
}

val default_conditions : conditions

val perf_of_bode : conditions -> Yield_spice.Ac.bode -> perf option

val feasible : conditions -> perf -> bool

val objectives : perf -> float array

include Testbench.S with type params = Ota.params
