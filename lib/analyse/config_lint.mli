(** Config and flow preflight: cross-field validation of the flow's
    configuration, a checkpoint-fingerprint dry-run, and static validation
    of [--fault-spec] strings — everything that can doom a multi-hour run
    and is knowable before the first simulation.

    The pass works on a {!view} (a plain projection of
    [Yield_core.Config.t]) so this library stays below [yield_core] in the
    dependency order and [Flow.run] can call it as its preflight stage.

    Codes:
    - [C001] (error) non-positive GA/MC scale field
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
    - [C007] solver name not known to
      {!Yield_numeric.Linsys.backend_of_string} (error), or [csr] requested
      on a system smaller than {!csr_min_size} unknowns (warning: symbolic
      overhead dominates, dense is faster)
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
  solver : string;
      (** raw [--solver] / [YIELDLAB_SOLVER] name, unvalidated by [Config] *)
  system_size : int option;
      (** MNA unknown count of the testbench when the caller has built it
          (the flow preflight has; a bare config lint has not) *)
  fingerprint : string;
}

val min_valid_mc_samples : int
(** The flow's degradation threshold (8): a front point whose Monte Carlo
    batch keeps fewer valid samples is skipped.  [Flow] reads it from here
    so the linter and the runtime can never disagree. *)

val csr_min_size : int
(** Below this many unknowns the csr backend's per-topology symbolic
    analysis outweighs any per-sample gain; C007 warns.  The dense backend
    is also faster per sample on the shipped 11-unknown testbenches, so
    the real crossover lies higher; this threshold stays until one is
    measured. *)

val check : ?checkpoint_dir:string -> ?resume:bool -> view -> Diagnostic.t list

val check_fault_spec : ?known:string list -> string -> Diagnostic.t list
(** [known] defaults to {!Yield_resilience.Fault.known} — every injection
    point registered in the running program. *)
