(** Generic amplifier characterisation.

    The measurement conditions, performance records and extraction logic are
    topology-independent; {!Make} instantiates the testbenches (open-loop AC,
    common-mode/supply variants, unity-gain follower transient, noise) for
    any {!Amplifier.S}.  {!Ota_testbench} is [Make (Ota)] plus the paper's
    defaults; {!Miller_testbench} is [Make (Miller)]. *)

type conditions = {
  tech : Yield_process.Tech.t;
  vcm : float;  (** input common-mode voltage, V *)
  load_cap : float;  (** F *)
  f_lo : float;
  f_hi : float;
  points_per_decade : int;
  min_unity_gain_hz : float;
      (** design constraint (paper eq. 1, g_j(x) >= 0): designs whose
          unity-gain frequency falls below this are infeasible *)
}

val default_conditions : conditions
(** The paper's §4 conditions: c35 technology, 1.65 V common mode, 3 pF
    load, 10 Hz - 1 GHz at 10 points/decade, 10 MHz bandwidth floor. *)

type perf = {
  gain_db : float;  (** open-loop gain at the lowest frequency *)
  phase_margin_deg : float;
  unity_gain_hz : float;
  f3db_hz : float;
  rout_est : float;
      (** single-pole output-resistance estimate
          [gain_lin / (2 pi f_u C_load)], the [ro] used by the behavioural
          model *)
}

type step_perf = {
  slew_v_per_us : float;
  settling_1pct_s : float option;
  overshoot_pct : float;
  final_error_v : float;  (** |final output - target|, the follower's gain error *)
}

val perf_of_bode : conditions -> Yield_spice.Ac.bode -> perf option
(** Gain, phase margin, unity-gain and -3 dB frequencies and the [ro]
    estimate of a sweep; [None] when the gain is not finite or the
    response has no unity crossing.  It reads only a prefix of the sweep
    (the points {!sweep_stop} waits for), so it returns the same bits on
    that prefix as on the full sweep. *)

val sweep_stop : unit -> int -> Complex.t -> int
(** A fresh stop rule for {!Yield_spice.Ac.transfer}'s [stop], for one
    sweep.  Its answer after point [k] is the number of further points
    {!perf_of_bode} needs whatever their values: [0] after point 0 when
    that point's gain is not finite; otherwise [2] until it has seen the
    first 0 dB crossing pair (i, i+1), which could still be (k, k+1) and
    needs point k+2; then [1] while the first (gain - 3 dB) crossing pair
    is still unseen, or until point i+2 is reached; then [0].  It never
    takes back a point it asked for, so the sweep may factor two promised
    points together.  {!perf_of_bode} of the prefix it keeps is
    bit-identical to {!perf_of_bode} of the full sweep; a response that
    lacks either crossing (or has NaNs where they would be) is swept to
    the end. *)

val feasible : conditions -> perf -> bool
(** The eq. 1 constraint set: positive phase margin and unity-gain frequency
    above the floor. *)

val objectives : perf -> float array
(** [[| gain_db; phase_margin_deg |]] — the two paper objectives. *)

val freqs_of : conditions -> float array
(** The AC sweep grid the conditions describe. *)

module Make (A : Amplifier.S) : sig
  val build : ?conditions:conditions -> A.params -> Yield_spice.Circuit.t * string
  (** Open-loop testbench (DC feedback through a large resistor, AC ground
      through a large capacitor on the inverting input) and the output node
      name. *)

  val bode_of_circuit :
    ?conditions:conditions -> Yield_spice.Circuit.t ->
    Yield_spice.Ac.bode option
  (** Run the sweep on an externally perturbed copy of the testbench.  The
      circuit must have the testbench's topology (a {!build} output or a
      [Circuit.map_devices] image of one): it solves in the functor's
      cached dense session. *)

  val bode : ?conditions:conditions -> A.params -> Yield_spice.Ac.bode option

  val evaluate : ?conditions:conditions -> A.params -> perf option
  (** DC + AC + extraction in the cached dense session; [None] on any
      failure.  The optimiser's objective function.  The AC sweep stops
      at {!sweep_stop}, so it returns the bits {!perf_of_bode} gives on
      the full {!bode}, usually without factoring the last fifth of the
      frequencies. *)

  val evaluate_sampled :
    ?conditions:conditions -> spec:Yield_process.Variation.spec ->
    rng:Yield_stats.Rng.t -> A.params -> perf option
  (** One Monte Carlo draw of process variation and mismatch applied to
      every transistor: {!evaluate_in_session} on a fresh dense {!session}
      of these params.  It patches device models per sample and does not
      rebuild the circuit. *)

  type session
  (** One testbench instantiation pinned to a front point: the built
      circuit plus a compiled {!Yield_spice.Mna.sys} solver session.  The
      session is compiled once per solver backend and cached for the
      functor's lifetime (every open-loop testbench of one amplifier shares
      a topology); sessions are immutable and safe to share across
      domains. *)

  val session :
    ?conditions:conditions -> ?solver:Yield_numeric.Linsys.backend ->
    A.params -> session
  (** Build the open-loop testbench once for these parameters.  [solver]
      defaults to [Dense].

      A [Csr] session also solves its nominal circuit once, here, in its
      own sys ({!Yield_spice.Dcop.solve}, counted and fault-checked like
      any solve), and keeps the operating point as the [start] of every
      sample's Newton ({!Yield_spice.Dcop.solve}'s warm start; a sample
      whose warm run does not converge falls back to the nodeset chain).
      A sample then takes about 4 Newton iterations instead of 10–12.
      If the nominal solve fails, samples start at the nodeset guess.  A
      [Dense] session takes no start, so dense samples keep the bits of
      a cold solve and stay the reference the tables are pinned to. *)

  val session_circuit : session -> Yield_spice.Circuit.t

  val session_sys : session -> Yield_spice.Mna.sys

  val session_solver_name : session -> string

  val evaluate_in_session :
    session -> spec:Yield_process.Variation.spec ->
    rng:Yield_stats.Rng.t -> perf option
  (** One Monte Carlo sample through the session: draws
      {!Yield_process.Variation.overrides} and patches device models
      per-sample instead of rebuilding the circuit.  Under the dense
      solver it is bit-identical to solving a
      {!Yield_process.Variation.perturb_circuit} rebuild at equal RNG
      state.  Under csr its Newton starts at the session's nominal
      operating point ({!session}), which agrees with a cold start to
      within Newton's tolerance (every perf field within 1e-9
      relative).  Like {!evaluate}, its AC sweep stops at {!sweep_stop},
      with the same bits as {!perf_of_bode} of the full sweep. *)

  val evaluate_with_draw :
    ?conditions:conditions -> spec:Yield_process.Variation.spec ->
    draw:Yield_process.Variation.global_draw -> A.params -> perf option
  (** Deterministic evaluation under a specific global draw, mismatch
      disabled (sensitivity analysis hook): a dense session sample through
      {!Yield_process.Variation.overrides_with_draw}. *)

  val cmrr_db : ?conditions:conditions -> A.params -> float option
  (** Low-frequency common-mode rejection: differential gain over the gain
      when both inputs move together. *)

  val psrr_db : ?conditions:conditions -> A.params -> float option
  (** Low-frequency positive-supply rejection. *)

  val input_referred_noise :
    ?conditions:conditions -> ?flicker:Yield_spice.Noise.flicker -> A.params ->
    ((float * float) array * float) option
  (** Input-referred noise PSD across the sweep and the integrated RMS from
      [f_lo] to the unity-gain frequency. *)

  val step_response :
    ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
    A.params -> (float array * float array) option
  (** Unity-gain follower step response: (times, output voltage). *)

  val step_perf :
    ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
    A.params -> step_perf option
end
