(** Config and flow preflight: cross-field validation of the flow's
    configuration, a checkpoint-fingerprint dry-run, and static validation
    of [--fault-spec] strings — everything that can doom a multi-hour run
    and is knowable before the first simulation.

    The pass works on a {!view} (a plain projection of
    [Yield_core.Config.t]) so this library stays below [yield_core] in the
    dependency order and [Flow.run] can call it as its preflight stage.

    Codes:
    - [C001] (error) non-positive GA/MC scale field ({!positive})
    - [C002] mc_samples vs. the degradation threshold: below
      {!min_valid_mc_samples} every front point is skipped and the flow is
      guaranteed to starve (error); below four times it, a realistic
      failure rate starves it (warning)
    - [C003] (warning) front_stride so large that two or fewer front points
      can be analysed — the variation model needs at least two
    - [C004] (error) malformed table-model control string
    - [C006] jobs below 1 (error: there is no zero-domain execution), or
      above [Domain.recommended_domain_count] (warning: over-subscription
      contends for cores instead of adding throughput)
    - [C005] checkpoint dry-run: fingerprint mismatch (error), resumable
      state present without [--resume] (info: it will be discarded)
    - [C007] (error) a solver name not known to
      {!Yield_numeric.Linsys.backend_of_string} ({!unknown_solver})
    - [C008] (error) a malformed setting: an env variable or CLI flag whose
      value does not parse or lies outside its domain
      ({!malformed_setting}).  It is refused, never replaced by a default
    - [F001] (error) unparseable [--fault-spec]
    - [F002] (error) fault-spec names an unknown injection point — the
      schedule would silently never fire
    - [F003] (warning) schedule that can never fire ([rate=0]) *)

type view = {
  population : int;
  generations : int;
  mc_samples : int;
  front_stride : int;
  control : string;
  seed : int;
  jobs : int;
  fingerprint : string;
}

val min_valid_mc_samples : int
(** The flow's degradation threshold (8): a front point whose Monte Carlo
    batch keeps fewer valid samples is skipped.  [Flow] reads it from here
    so the linter and the runtime can never disagree. *)

val check : ?checkpoint_dir:string -> ?resume:bool -> view -> Diagnostic.t list

val positive : subject:string -> int -> Diagnostic.t list
(** [C001] (error) when the count is not positive, named by [subject]:
    a scale field of the {!view} here, a count flag where [yieldlab
    optimize] and [mc] refuse one before simulating.  Empty otherwise. *)

val checkpoint_mismatch : dir:string -> string -> Diagnostic.t
(** The [C005] error for checkpoint directory [dir], recorded under
    another fingerprint; the message is
    {!Yield_resilience.Checkpoint.check_fingerprint}'s.  The dry-run
    reports it, and [Flow.run] refuses with it when the dry-run was
    skipped. *)

(** {2 Refused settings}

    [Config]'s settings registry builds these when a flag or variable
    (named by [setting]) holds text it refuses; the flow and
    [lint config] exit 2 on them. *)

val malformed_setting : setting:string -> value:string -> expected:string -> Diagnostic.t
(** [C008]: the raw text [value] is not [expected] (e.g. ["a fraction in
    (0, 1]"]). *)

val jobs_below_one : setting:string -> int -> Diagnostic.t
(** [C006]: a jobs count below 1 (also what {!check} reports for a
    {!view} holding one). *)

val unknown_solver : setting:string -> string -> Diagnostic.t
(** [C007]: a solver name {!Yield_numeric.Linsys.backend_of_string} does
    not know. *)

val check_fault_spec : ?known:string list -> string -> Diagnostic.t list
(** [known] defaults to {!Yield_resilience.Fault.known} — every injection
    point registered in the running program. *)
