(** The flow's degree of parallelism.

    Every parallel stage (WBGA population evaluation, Pareto-front
    re-simulation, Monte Carlo batches) obeys one [jobs] setting, resolved
    by [Yield_core.Config]'s settings registry like every other setting:
    the [--jobs N] / [-j N] flag, else the [YIELDLAB_JOBS] variable, else
    {!recommended}.  There is no hidden cap and no clamp: a count below 1
    is refused (C006), and {!Yield_analyse.Config_lint} warns when the
    count exceeds the recommended one.  [jobs = 1] always means the exact
    serial code path. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]: the default, the whole machine. *)
