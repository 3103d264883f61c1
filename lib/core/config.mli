(** Configuration of the full model-generation flow (Figure 3), and the one
    registry of the settings a run reads from its flags and environment. *)

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
    ({!Yield_obs.Obs.ensure_telemetry}), so a stream the CLI armed first
    stays in charge. *)

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
  solver : Yield_numeric.Linsys.backend;
      (** linear-solver backend for the Monte Carlo inner loop.  csr
          samples start Newton at the nominal operating point.  The
          optimisation and nominal-front stages always run dense, so
          [perf_model.tbl] is solver-independent. *)
  telemetry : telemetry;
  prescreen : prescreen;
}

val no_prescreen : prescreen
(** Disabled; defaults [k_sigma = 3.], window [(0, 0)], budget fraction 1. *)

val paper_scale : t
(** The paper's §4 settings: population 100 x 100 generations (10,000
    evaluation samples), 200 MC samples on every Pareto point.
    [jobs = 1] (serial): callers opt into parallelism explicitly. *)

val fast_scale : t
(** Reduced settings for smoke runs: 40 x 25 optimisation, 40 MC samples on
    every 4th Pareto point.  [jobs = 1], as for {!paper_scale}. *)

val scale_name : t -> string

(** {2 The settings registry}

    Every setting a run takes from a flag or an environment variable is
    one entry of {!settings}: the CLI builds its flags from the list, the
    README's settings table is rendered from it, and {!fingerprint} joins
    its entries' clauses.  A value is refused with one diagnostic naming
    the flag or variable and its text — C006 for a jobs count below 1,
    C007 for an unknown solver, C008 otherwise
    ({!Yield_analyse.Config_lint}) — and never replaced by a default. *)

type scope =
  | Global  (** every subcommand takes it *)
  | Flow  (** only [flow] and [lint config] take it *)

type setting = {
  name : string;
  flags : string list;  (** CLI spellings without dashes, the long one first *)
  var : string;  (** the environment variable *)
  docv : string option;
      (** the flag's argument; [None] for a switch: the flag alone, or a
          variable other than empty or ["0"], turns it on *)
  scope : scope;
  default : string;  (** the value without flag or variable *)
  clause : string;  (** what the setting adds to {!fingerprint} *)
  doc : string;
  parse :
    source:string -> string -> t -> (t, Yield_analyse.Diagnostic.t) result;
      (** set the setting's field from raw text; a refusal names [source],
          the flag or variable the text came from *)
  fingerprint : t -> string option;  (** the setting's {!fingerprint} clause *)
}

val settings : setting list

val taken_by : scope -> setting list
(** The entries a command of [scope] takes, in order: all of them for
    [Flow], the [Global] ones for [Global]. *)

val resolve :
  ?scope:scope -> ?flags:(string * string) list -> t ->
  (t, Yield_analyse.Diagnostic.t list) result
(** The one resolution rule.  For each entry of [taken_by scope] (default
    [Flow]: all of them) in order: the text its flag was given ([flags]
    maps a setting's [name] to it; a switch flag is given ["1"]), else its
    variable's (empty counts as unset), else [base]'s value.  [Error]
    carries every refusal at once. *)

val base : unit -> t
(** {!paper_scale} with [jobs] the recommended domain count: what the CLI
    and {!of_env} resolve over. *)

val of_env : unit -> (t, Yield_analyse.Diagnostic.t list) result
(** [resolve (base ())]: every setting from its variable alone. *)

val settings_table : unit -> string
(** {!settings} as the README's markdown table, one row per entry. *)

val fingerprint : ?amplifier:string -> t -> string
(** Identity of a checkpointed run: {!Flow.run} refuses to resume a
    checkpoint directory recorded under another one.  It always holds the
    seed, the GA/MC scale and the control string; every other clause
    appears only when its value differs from the one every existing
    checkpoint was written under: the GA operators, the testbench
    [conditions] (for a Miller flow,
    {!Yield_circuits.Miller_testbench.conditions}) and the [variation]
    spec as the digest of their exact rendering, then
    the clause of each entry of {!settings}, then [amplifier=NAME] for an
    amplifier (default ["ota"]) other than the OTA.  [jobs] and
    [telemetry] never enter it. *)
