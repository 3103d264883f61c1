(** Configuration of the full model-generation flow (Figure 3). *)

type telemetry = {
  trace_stream : string option;
      (** stream span events incrementally to this path
          ([.jsonl] → JSONL, other [.json] → Chrome trace) *)
  span_sample : string option;
      (** deterministic span-sampling spec, e.g. ["mc.batch=0.1;exec.*=0"] *)
  snapshot_every_s : float option;
      (** periodic metrics-delta snapshots into the stream *)
}
(** Runtime observability knobs — never part of {!fingerprint}, since they
    cannot affect results.  {!Flow.run} arms them idempotently
    ({!Yield_obs.Obs.ensure_telemetry}), so CLI flags applied earlier
    always win over env-derived values. *)

type prescreen = {
  enabled : bool;
  k_sigma : float;
      (** truncation of the parameter box handed to {!Corner_lint} — the
          proofs hold over the ±k·sigma box, and [Provably_pass]/[_fail]
          claims about unbounded Monte Carlo hold up to the normal mass
          outside it (DESIGN.md §4a) *)
  min_gain_db : float;  (** spec window the Y-code verdicts compare against *)
  min_pm_deg : float;
  pass_budget_frac : float;
      (** fraction of [mc_samples] a [Provably_pass] point still runs
          (1.0 = no shrink); clamped to (0, 1] *)
}
(** Opt-in corner-proof Monte Carlo pre-screen (see {!Corner_lint}):
    [Provably_fail] points skip MC entirely, [Provably_pass] points may run
    a reduced budget, [Undecided] points are untouched. *)

type t = {
  conditions : Yield_circuits.Ota_testbench.conditions;
  variation : Yield_process.Variation.spec;
  ga : Yield_ga.Ga.config;
  mc_samples : int;  (** Monte Carlo samples per Pareto point (paper: 200) *)
  front_stride : int;
      (** analyse every k-th Pareto point in the variation step (1 = all,
          the paper's setting) *)
  control : string;  (** table-model control string (paper: "3E") *)
  seed : int;
  jobs : int;
      (** domain-pool size every parallel stage of {!Flow.run} obeys (WBGA
          evaluation, Pareto-front re-simulation, Monte Carlo batches);
          [1] takes the exact serial code path.  Results are
          jobs-independent, so [jobs] is excluded from {!fingerprint}. *)
  solver : string;
      (** linear-solver backend name for the Monte Carlo inner loop
          (["dense"] or ["csr"]; see {!Yield_numeric.Linsys.backend_of_string}).
          Kept as the raw string so {!Config_lint} can report unknown names
          (C007).  Part of {!fingerprint} only when it departs from
          ["dense"]; the csr tag also records that csr samples start
          Newton at the nominal operating point.  The optimisation and
          nominal-front stages always run dense, so [perf_model.tbl] is
          solver-independent. *)
  telemetry : telemetry;
  prescreen : prescreen;
}

val no_telemetry : telemetry
(** All knobs off — what {!paper_scale} and {!fast_scale} carry. *)

val no_prescreen : prescreen
(** Disabled; defaults [k_sigma = 3.], window [(0, 0)], budget fraction 1. *)

val paper_scale : t
(** The paper's §4 settings: population 100 x 100 generations (10,000
    evaluation samples), 200 MC samples on every Pareto point.
    [jobs = 1] (serial): callers opt into parallelism explicitly. *)

val fast_scale : t
(** Reduced settings for smoke runs: 40 x 25 optimisation, 40 MC samples on
    every 4th Pareto point.  [jobs = 1], as for {!paper_scale}. *)

val of_env : unit -> (t, Yield_analyse.Diagnostic.t list) result
(** [paper_scale], or [fast_scale] when the environment variable
    [YIELDLAB_FAST] is set to a non-empty value other than ["0"]; [jobs] is
    resolved through {!Yield_exec.Jobs.resolve} (CLI request >
    [YIELDLAB_JOBS] > recommended domain count); [solver] from
    {!solver_of_env}; [telemetry] from {!telemetry_of_env}; [prescreen]
    from {!prescreen_of_env}.  [Error] carries the C008 diagnostics of
    both readers. *)

val solver_of_env : unit -> string
(** [YIELDLAB_SOLVER], verbatim (empty counts as unset → ["dense"]).
    Deliberately unvalidated: preflight lint (C007) owns the error
    message. *)

(** {2 Settings read from the environment or flags}

    A malformed value is refused with a C008 error diagnostic
    ({!Yield_analyse.Config_lint.malformed_setting}) naming the variable
    or flag and its text; it is never replaced by a default.  Numbers must
    parse with [float_of_string] and be finite. *)

val prescreen_of_env : unit -> (prescreen, Yield_analyse.Diagnostic.t list) result
(** {!no_prescreen} unless [YIELDLAB_PRESCREEN] is non-empty and not
    ["0"]; then enabled, with [YIELDLAB_PRESCREEN_K],
    [YIELDLAB_PRESCREEN_MIN_GAIN], [YIELDLAB_PRESCREEN_MIN_PM] and
    [YIELDLAB_PRESCREEN_PASS_BUDGET] (a fraction in (0, 1]) overriding the
    {!no_prescreen} defaults.  Empty variables count as unset; every
    malformed one gets its own diagnostic. *)

val prescreen_of_flags :
  k_sigma:float -> min_gain_db:float -> min_pm_deg:float ->
  pass_budget_frac:float -> (prescreen, Yield_analyse.Diagnostic.t list) result
(** The enabled prescreen of [flow --prescreen]'s flags; a
    [pass_budget_frac] outside (0, 1] is refused, naming
    [--prescreen-budget]. *)

val telemetry_of_env : unit -> (telemetry, Yield_analyse.Diagnostic.t list) result
(** [YIELDLAB_TRACE_STREAM] (path), [YIELDLAB_SPAN_SAMPLE] (spec) and
    [YIELDLAB_SNAPSHOT_EVERY] (a positive number of seconds).  Empty
    variables count as unset. *)

val scale_name : t -> string

val fingerprint : t -> string
(** Identity of a checkpointed run (seed, GA/MC scale, control string, plus
    prescreen and solver when non-default): {!Flow.run} refuses to resume a
    checkpoint directory recorded under a different fingerprint.  csr is
    tagged [solver=csr;mc-start=nominal], so a csr checkpoint whose Monte
    Carlo points were started cold (tagged plain [solver=csr]) is
    refused. *)
