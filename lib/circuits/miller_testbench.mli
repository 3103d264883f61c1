(** The generic characterisation testbenches instantiated for the two-stage
    Miller OTA; see {!Testbench} for the interface and {!Ota_testbench} for
    the paper's primary circuit. *)

val conditions : Testbench.conditions
(** The Miller stage's characterisation conditions: the paper's, with the
    unity-gain floor lowered to 5 MHz, since the stage's unity gain
    [gm1 / (2 pi Cc)] is about 7 MHz.  Every Miller flow runs under them,
    and every existing Miller checkpoint was written under them. *)

val build :
  ?conditions:Testbench.conditions -> Miller.params ->
  Yield_spice.Circuit.t * string

val bode_of_circuit :
  ?conditions:Testbench.conditions -> Yield_spice.Circuit.t ->
  Yield_spice.Ac.bode option

val bode :
  ?conditions:Testbench.conditions -> Miller.params ->
  Yield_spice.Ac.bode option

val evaluate :
  ?conditions:Testbench.conditions -> Miller.params -> Testbench.perf option

val evaluate_sampled :
  ?conditions:Testbench.conditions -> spec:Yield_process.Variation.spec ->
  rng:Yield_stats.Rng.t -> Miller.params -> Testbench.perf option

val evaluate_with_draw :
  ?conditions:Testbench.conditions -> spec:Yield_process.Variation.spec ->
  draw:Yield_process.Variation.global_draw -> Miller.params ->
  Testbench.perf option

val cmrr_db : ?conditions:Testbench.conditions -> Miller.params -> float option

val psrr_db : ?conditions:Testbench.conditions -> Miller.params -> float option

val input_referred_noise :
  ?conditions:Testbench.conditions -> ?flicker:Yield_spice.Noise.flicker ->
  Miller.params -> ((float * float) array * float) option

val step_response :
  ?conditions:Testbench.conditions -> ?amplitude:float -> ?t_stop:float ->
  ?dt:float -> Miller.params -> (float array * float array) option

val step_perf :
  ?conditions:Testbench.conditions -> ?amplitude:float -> ?t_stop:float ->
  ?dt:float -> Miller.params -> Testbench.step_perf option
