(** The paper's §5 application: a 2nd-order low-pass anti-aliasing filter
    designed around the OTA behavioural model.

    Fig. 9 gives only the schematic (OTA symbols and capacitors C1–C3); we
    realise it as the canonical two-OTA gm-C biquad — OTAs drive only
    capacitors, which is what an OTA can do:

    {v
      OTA1: V+ = vin, V- = vout, output -> v1,   C1: v1 -> gnd
      OTA2: V+ = v1,  V- = vout, output -> vout, C2: vout -> gnd
      C3: v1 -> vout (bridge/trim capacitor)
    v}

    With transconductances g (equal OTAs) and ideal outputs,
    [H(s) = g^2 / (s^2 C1 C2 + s C1 g + g^2)]: a unity-DC-gain low-pass with
    [w0 = g / sqrt(C1 C2)] and [Q = sqrt(C2 / C1)].  The behavioural OTA is
    the paper's Verilog-A output stage [V(out) <+ -A*V(in) - I(out)*ro],
    whose Norton form is a transconductor [g = A/ro] with output resistance
    [ro] — the finite-gain and loading effects are therefore part of the
    simulation, as they are at transistor level. *)

type amp = {
  gain_db : float;  (** open-loop gain A in dB *)
  rout : float;  (** output resistance, Ohm *)
}

val gm_of_amp : amp -> float
(** The equivalent transconductance [A / ro]. *)

type caps = { c1 : float; c2 : float; c3 : float }

type spec = {
  f_pass : float;  (** passband edge, Hz *)
  ripple_db : float;  (** max deviation from DC gain within the passband *)
  f_stop : float;  (** stopband edge, Hz *)
  atten_db : float;  (** min attenuation beyond the stopband edge *)
}

val default_spec : spec
(** Anti-aliasing mask (Fig. 10): 1 MHz passband at +-1 dB, >= 30 dB
    attenuation beyond 10 MHz. *)

val build : amp -> caps -> Yield_spice.Circuit.t * string
(** Filter circuit (behavioural OTAs) and the output node name. *)

val response :
  ?freqs:float array -> amp -> caps -> Yield_spice.Ac.bode option
(** AC response relative to the input; default grid 1 kHz - 100 MHz. *)

val build_transistor :
  ?tech:Yield_process.Tech.t -> ?vcm:float -> Ota.params -> caps ->
  Yield_spice.Circuit.t * string
(** The same biquad with both OTAs realised at transistor level (§4's OTA) —
    the verification path of Figure 11. *)

val response_of_circuit :
  ?sys:Yield_spice.Mna.sys -> ?freqs:float array -> Yield_spice.Circuit.t ->
  out:string -> Yield_spice.Ac.bode option
(** AC response of an already-built (possibly Monte Carlo-perturbed) filter
    circuit, solved in [sys] (default: a fresh one).  Samples of one
    topology pass one [sys], so its pattern and plan are built once. *)

val response_transistor :
  ?freqs:float array -> ?tech:Yield_process.Tech.t -> ?vcm:float ->
  Ota.params -> caps -> Yield_spice.Ac.bode option

type check = {
  passband_margin_db : float;
      (** min over the passband of [ripple - |gain - dc_gain|]; >= 0 when the
          passband mask holds *)
  stopband_margin_db : float;
      (** min over the stopband of [attenuation achieved - attenuation
          required]; >= 0 when the stopband mask holds *)
  meets_spec : bool;
}

val check : spec -> Yield_spice.Ac.bode -> check

val evaluate : amp -> spec -> caps -> (check, string) result

type optimise_result = {
  best : caps;
  best_check : check;
  front : (caps * check) array;
  evaluations : int;
}

val optimise :
  ?population:int -> ?generations:int ->
  amp -> spec -> Yield_stats.Rng.t -> optimise_result
(** The paper's §5 MOO (default 30 individuals, 40 generations): maximise
    passband and stopband margins; [best] maximises the smaller of the two
    margins.  @raise Failure if no evaluable design was found. *)
