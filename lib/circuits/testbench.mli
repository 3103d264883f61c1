(** Generic amplifier characterisation.

    The measurement conditions, performance records and extraction logic are
    topology-independent; {!Make} instantiates the testbenches (open-loop AC,
    common-mode/supply variants, unity-gain follower transient, noise) for
    any {!Amplifier.S}, as a module of signature {!S}.  {!Ota_testbench} is
    [Make (Ota)] plus the paper's defaults; {!Miller_testbench} is
    [Make (Miller)] plus the Miller stage's conditions. *)

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
    that prefix as on the full sweep.  It is the extraction every
    evaluation runs in its AC workspace, on a response copied out of the
    bode, with every magnitude computed first.
    @raise Invalid_argument on an empty bode. *)

val sweep_stop : Yield_spice.Mna.response -> int -> int
(** The stop rule for {!Yield_spice.Ac.sweep}'s [stop].  It keeps what
    it has seen of a sweep in the response's [marks], which it sets at
    point 0, so it is one closed function and a sweep that uses it
    allocates nothing for it.  After point [k] it writes that point's magnitude into the
    response ({!Yield_spice.Measure.set_magnitude_db}), where the
    extraction reads it back, and answers the number of further points
    {!perf_of_bode} needs whatever their values: [0] after point 0 when
    that point's gain is not finite; otherwise [2] until it has seen the
    first 0 dB crossing pair (i, i+1), which could still be (k, k+1) and
    needs point k+2; then [1] while the first (gain - 3 dB) crossing pair
    is still unseen, or until point i+2 is reached; then [0].  It never
    takes back a point it asked for, so the sweep may factor two promised
    points together.  {!perf_of_bode} of the prefix it keeps is
    bit-identical to {!perf_of_bode} of the full sweep; a response that
    lacks either crossing (or has NaNs where they would be) is swept to
    the end.  It reads the magnitudes of points 0 and [k - 1] back from
    the response, so it must see every point from 0 in order, as the
    sweep shows them. *)

val feasible : conditions -> perf -> bool
(** The eq. 1 constraint set: positive phase margin and unity-gain frequency
    above the floor. *)

val objectives : perf -> float array
(** [[| gain_db; phase_margin_deg |]] — the two paper objectives. *)

val freqs_of : conditions -> float array
(** The AC sweep grid the conditions describe ({!Yield_spice.Ac.default_freqs}
    of their [f_lo], [f_hi] and [points_per_decade]).  It is computed
    once per distinct triple and shared by every caller: the array must
    not be written.
    @raise Invalid_argument as {!Yield_spice.Ac.default_freqs}. *)

val cached : ('k * 'v) list Atomic.t -> 'k -> ('k -> 'a -> 'v) -> 'a -> 'v
(** [cached cache key make x]: the value under [key] in the compare-and-set
    list [cache], [make key x] published by its first caller (a racing
    domain's own is dropped).  With a closed [make], a hit allocates
    nothing.  The per-topology solver sessions and sweep grids live here. *)

(** What {!Make} gives for one amplifier: its testbenches, evaluations and
    Monte Carlo sessions.  {!Ota_testbench} and {!Miller_testbench} are
    this signature for the paper's two circuits. *)
module type S = sig
  type params

  val build : ?conditions:conditions -> params -> Yield_spice.Circuit.t * string
  (** Open-loop testbench (DC feedback through a large resistor, AC ground
      through a large capacitor on the inverting input: the standard
      Spectre loop-breaking arrangement) and the output node name. *)

  val bode_of_circuit :
    ?conditions:conditions -> Yield_spice.Circuit.t ->
    Yield_spice.Ac.bode option
  (** Run the sweep on an externally perturbed copy of the testbench.  The
      circuit must have the testbench's topology (a {!build} output or a
      [Circuit.map_devices] image of one): it solves in the functor's
      cached dense session. *)

  val bode : ?conditions:conditions -> params -> Yield_spice.Ac.bode option
  (** Full open-loop transfer function; [None] if the DC solve fails. *)

  val evaluate : ?conditions:conditions -> params -> perf option
  (** DC + AC + extraction in the cached dense session; [None] on any
      failure.  The optimiser's objective function.  The AC sweep stops
      at {!sweep_stop}, so it returns the bits {!perf_of_bode} gives on
      the full {!bode}, usually without factoring the last fifth of the
      frequencies.

      It builds no testbench, no operating point and no bode.  The
      functor keeps one testbench per [conditions], built at the default
      design and published by compare-and-set like {!freqs_of}'s grids,
      read-only and shared across domains; an evaluation passes its
      design's W and L to the assembly ({!Yield_spice.Mna.sizes}), so it
      solves the floats a circuit built for [params] holds.  The DC
      answer stays in the borrowed DC workspace
      ({!Yield_spice.Dcop.with_solution}), the AC assembly evaluates each
      MOSFET's small-signal model at it ({!Yield_spice.Mna.Solution}),
      and the response, its magnitudes and phases stay in the AC
      workspace, where the extraction reads them.  A converged
      evaluation allocates its [perf], its sizes and a few dozen words
      of arguments and boxed measurements, under 128 words.
      @raise Invalid_argument when the amplifier sizes a MOSFET by
      anything but one design parameter ([A.add] is read once per
      [conditions], at the first evaluation). *)

  type session
  (** One testbench instantiation pinned to a design: the built circuit
      plus a compiled {!Yield_spice.Mna.sys} solver session.  The session
      is compiled once per solver backend and cached for the functor's
      lifetime (every open-loop testbench of one amplifier shares a
      topology); sessions are immutable and safe to share across domains.
      Every Monte Carlo sample of a design goes through one. *)

  val session :
    ?conditions:conditions -> ?solver:Yield_numeric.Linsys.backend ->
    params -> session
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
  (** One Monte Carlo draw of process variation and mismatch applied to
      every transistor, through the session: it borrows a models buffer
      from the session's sys ({!Yield_spice.Mna.borrow_models}), draws
      the sample into it ({!Yield_process.Variation.draw_into}) and
      assembles every MOSFET from it, instead of rebuilding the circuit
      or building a model record.  Under the dense
      solver it is bit-identical to solving a
      {!Yield_process.Variation.perturb_circuit} rebuild at equal RNG
      state.  Under csr its Newton starts at the session's nominal
      operating point ({!session}), which agrees with a cold start to
      within Newton's tolerance (every perf field within 1e-9
      relative).  Like {!evaluate}, its AC sweep stops at {!sweep_stop},
      with the same bits as {!perf_of_bode} of the full sweep. *)

  val evaluate_with_draw :
    session -> draw:Yield_process.Variation.global_draw -> perf option
  (** Deterministic evaluation under a specific global draw, mismatch
      disabled: the hook for sensitivity analysis and corner-style
      studies.  A session sample whose buffer
      {!Yield_process.Variation.global_into} wrote, so it reads no random
      stream. *)

  val cmrr_db : ?conditions:conditions -> params -> float option
  (** Common-mode rejection at the low-frequency end: the differential
      testbench's gain over the gain measured when both inputs move
      together (the AC-grounding capacitor's far terminal is driven
      instead of grounded, so the loop-breaking arrangement is
      identical). *)

  val psrr_db : ?conditions:conditions -> params -> float option
  (** Positive-supply rejection at the low-frequency end: differential
      gain over the supply-to-output gain. *)

  val input_referred_noise :
    ?conditions:conditions -> ?flicker:Yield_spice.Noise.flicker -> params ->
    ((float * float) array * float) option
  (** Input-referred noise PSD across the sweep and the integrated RMS from
      [f_lo] to the unity-gain frequency. *)

  val step_response :
    ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
    params -> (float array * float array) option
  (** Unity-gain follower step response: the output follows an
      [amplitude]-volt input step (default 0.5 V around the common mode).
      Returns (times, output voltage); [None] if the transient fails. *)

  val step_perf :
    ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
    params -> step_perf option
  (** Slew rate, 1 % settling time and overshoot extracted from
      {!step_response}.  A negative [amplitude] is a falling step.
      @raise Invalid_argument when [amplitude] is zero or not finite. *)
end

module Make (A : Amplifier.S) : S with type params = A.params
