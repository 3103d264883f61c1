(** The proposed algorithm end-to-end (Figure 3):

    netlist + objectives -> WBGA multi-objective optimisation -> Pareto-front
    performance model -> per-point Monte Carlo variation model -> combined
    table-based behavioural model -> yield-targeted design queries. *)

type counts = {
  optimisation_sims : int;  (** transistor evaluations inside the WBGA *)
  front_sims : int;  (** nominal re-evaluations of the Pareto points *)
  mc_sims : int;  (** Monte Carlo evaluations of the variation step *)
}
(** The paper's cost accounting, derived from the {!Yield_obs.Metrics}
    registry (deltas of the ["wbga.evaluations"], ["flow.front_sims"] and
    ["mc.samples.attempted"] counters over the run). *)

val total_sims : counts -> int

type prescreen_counts = {
  analysed : int;  (** front points the corner proof ran on *)
  fail_skipped : int;
      (** [Provably_fail] points — their whole MC batch was skipped *)
  pass_shrunk : int;  (** [Provably_pass] points that ran a reduced budget *)
  provably_passed : int;
  undecided : int;  (** ran their full budget, unchanged *)
}
(** Accounting of the opt-in {!Config.prescreen} stage, derived from the
    ["flow.prescreen.*"] counters ([points], [skipped], [shrunk], [passed],
    [undecided]) over the run. *)

type timings = {
  optimisation_s : float;
  mc_s : float;
  total_s : float;
}
(** Stage wall-clock, measured by the ["flow.wbga"], ["flow.mc"] and
    ["flow.run"] spans (the full per-stage set — including the front
    re-simulation and table build — is in the span events and the
    ["span.flow.*"] histograms). *)

type t = {
  config : Config.t;
  wbga : Yield_ga.Wbga.result;
  front_points : Yield_behavioural.Perf_model.point array;
      (** Pareto designs with their nominal small-signal data *)
  var_points : Yield_behavioural.Var_model.point array;
  perf_model : Yield_behavioural.Perf_model.t;
  var_model : Yield_behavioural.Var_model.t;
  macromodel : Yield_behavioural.Macromodel.t;
  counts : counts;
  prescreen : prescreen_counts option;
      (** [Some] iff [Config.prescreen.enabled] *)
  timings : timings;
}

exception Refused of Yield_analyse.Diagnostic.t list
(** {!run} refused to start: the preflight found error-severity findings
    (all its findings are carried), or, with the preflight skipped, the
    checkpoint directory was recorded under another fingerprint (its
    [C005] error).  Nothing was simulated.  Each carried finding has
    already gone to [~log] once. *)

exception Unfinished of string
(** {!run} started but could not finish: the optimisation produced no
    usable Pareto front, or the variation model starved (too few front
    points kept enough valid Monte Carlo samples).  The message says which,
    on one line. *)

val run :
  ?log:(string -> unit) -> ?preflight:bool -> ?checkpoint_dir:string ->
  ?resume:bool -> Config.t -> t
(** The paper's flow on its benchmark circuit (the symmetrical OTA).

    The run owns one {!Yield_exec.Pool} of [Config.jobs] domains, shared by
    every parallel stage — WBGA population evaluation, Pareto-front
    re-simulation and the per-point Monte Carlo batches.  Results are
    independent of [jobs]: RNG streams are split before each fan-out and
    every order-sensitive reduction runs on the calling domain, so a
    [jobs = n] run (including its checkpoints) is bit-identical to the
    serial one.  [jobs = 1] takes the exact serial code path.

    Unless [~preflight:false], the run opens with a static-analysis stage
    ({!Yield_analyse}): config cross-field checks, a checkpoint-fingerprint
    dry-run, and a netlist lint of the amplifier's testbench at its default
    sizing.  Error-severity findings abort the run before any simulation;
    warnings are logged.  The stage is timed by the ["flow.preflight"] span
    and counted in ["preflight.findings"] / ["preflight.errors"].

    With [checkpoint_dir], every stage persists its progress there
    ({!Yield_resilience.Checkpoint}): the WBGA state per generation
    ([wbga.state]), the finished optimisation ([wbga.result]), the
    re-simulated front ([front]) and the per-Pareto-point Monte Carlo
    progress ([mc.state]).  With [resume] (default [false]) the run
    continues from whatever those keys hold — bit-identically to an
    uninterrupted run, because the checkpoints carry the RNG stream states
    and hex-exact floats.  Without [resume], stale stage state under the
    same directory is discarded.  A directory recorded under a different
    fingerprint is refused: {!Config.fingerprint} under the amplifier's
    {!Yield_circuits.Amplifier.S.name}, so one topology's checkpoint never
    resumes as another's.

    A front point whose Monte Carlo batch yields fewer than
    {!Yield_analyse.Config_lint.min_valid_mc_samples} valid samples is
    skipped (logged, counted in ["flow.points.degraded"]) instead of
    crashing the flow or poisoning the variation model.

    With [Config.prescreen.enabled], each analysed front point is first
    pushed through the {!Yield_analyse.Corner_lint} corner proof before its
    Monte Carlo batch: [Provably_fail] points skip MC entirely (yield 0,
    the enclosure logged as provenance, no variation point),
    [Provably_pass] points may run a budget shrunk to
    [pass_budget_frac * mc_samples], and [Undecided] points run unchanged.
    The decision is deterministic, and the prescreen settings join the
    checkpoint fingerprint, so resumed runs repeat it bit-identically.
    Accounting lands in {!prescreen_counts} / the ["flow.prescreen.*"]
    counters.

    @raise Refused when the preflight finds error-severity problems or on
    a checkpoint fingerprint mismatch.
    @raise Unfinished when the optimisation produces no usable front or
    the variation model starves. *)

val design_for_spec :
  t -> Yield_behavioural.Yield_target.spec ->
  (Yield_behavioural.Yield_target.plan, string) result

type verification = {
  nominal : Yield_circuits.Ota_testbench.perf;
  yield : Yield_process.Montecarlo.yield_estimate;
  gains : float array;  (** per-sample measured gains *)
  pms : float array;
}

val verify_design :
  t -> ?samples:int -> ?seed:int -> spec:Yield_behavioural.Yield_target.spec ->
  Yield_circuits.Ota.params -> (verification, string) result
(** Transistor-level Monte Carlo check of a design against a spec (the
    paper's 500-sample verification). *)

val save_tables : t -> dir:string -> string list
(** Write [perf_model.tbl], [gain_delta.tbl] (variation model) into [dir];
    returns the paths written. *)

val load_models :
  dir:string -> control:string ->
  Yield_behavioural.Perf_model.t * Yield_behavioural.Var_model.t

val lint_models :
  ?spec:Yield_behavioural.Yield_target.spec ->
  dir:string -> control:string -> unit -> Yield_analyse.Diagnostic.t list
(** Preflight for {!load_models} consumers ([yieldlab design] /
    [yieldlab export-va]): the perf table under the same strict gain axis
    {!load_models} enforces, the variation table under the tolerant read it
    actually gets, [spec]-window coverage (T007) against both tables, and a
    structural {!Yield_analyse.Va_lint} pass over the Verilog-A module that
    would be emitted with [control].  Error-severity findings predict a
    {!load_models} failure or a runtime rejection. *)

(** The same pipeline for any {!Yield_circuits.Amplifier.S} topology
    ([run] above is [Ota_flow.run]): note that [Config.conditions] should
    be adapted to the topology (e.g. the Miller stage's are
    {!Yield_circuits.Miller_testbench.conditions}). *)
module type S = sig
  type params

  val optimise :
    ?pool:Yield_exec.Pool.t -> ?checkpoint:(Yield_ga.Wbga.snapshot -> unit) ->
    ?resume:Yield_ga.Wbga.snapshot -> config:Yield_ga.Ga.config ->
    conditions:Yield_circuits.Testbench.conditions -> rng:Yield_stats.Rng.t ->
    unit -> Yield_ga.Wbga.result
  (** The optimisation stage of {!run}: the WBGA over the amplifier's
      parameters, each individual one nominal evaluation under [conditions]
      scored on gain and phase margin (both maximised), infeasible when it
      fails to simulate or fails eq. 1 ({!Yield_circuits.Testbench.feasible}).
      [pool], [checkpoint] and [resume] are {!Yield_ga.Wbga.run}'s. *)

  val run :
    ?log:(string -> unit) -> ?preflight:bool -> ?checkpoint_dir:string ->
    ?resume:bool -> Config.t -> t

  val check_config :
    ?checkpoint_dir:string -> ?resume:bool -> Config.t ->
    Yield_analyse.Diagnostic.t list
  (** The config findings of {!run}'s preflight, which [yieldlab lint
      config] reports as well: {!Yield_analyse.Config_lint.check} on the
      config, with the checkpoint dry-run under the fingerprint {!run}
      records (the amplifier included). *)

  val verify_design :
    t -> ?samples:int -> ?seed:int -> spec:Yield_behavioural.Yield_target.spec ->
    params -> (verification, string) result
end

module Make (A : Yield_circuits.Amplifier.S) : S with type params = A.params

module Ota_flow : S with type params = Yield_circuits.Ota.params

module Miller_flow : S with type params = Yield_circuits.Miller.params
(** The two-stage Miller OTA's flow; run it under
    {!Yield_circuits.Miller_testbench.conditions}. *)
