(** DC operating-point analysis: damped Newton–Raphson on the MNA system,
    with gmin-stepping and source-stepping homotopies as fallbacks. *)

type t = {
  x : Yield_numeric.Vec.t;  (** converged unknown vector *)
  layout : Mna.layout;
  mos_ops : (string * Mosfet.op) list;
  iterations : int;  (** Newton iterations of the final (full-source) solve *)
}

type options = {
  max_iterations : int;  (** per Newton attempt; default 150 *)
  vtol : float;  (** voltage convergence tolerance; default 1e-9 *)
  max_step : float;  (** per-iteration voltage step clamp, V; default 0.5 *)
  gmin : float;  (** baseline node-to-ground conductance; default 1e-12 *)
}

val default_options : options

type error =
  | No_convergence of { attempts : string list }
  | Singular_system of string

val error_to_string : error -> string

val classify_error : error -> Yield_resilience.Retry.classification
(** [No_convergence] is transient (a different starting point may converge);
    [Singular_system] is permanent (the topology itself is broken). *)

val iterate :
  Mna.dc_work -> options -> n_nodes:int -> x0:Yield_numeric.Vec.t ->
  (Mna.dc_work -> Yield_numeric.Vec.t -> unit) -> int
(** [iterate w options ~n_nodes ~x0 assemble] is one damped-Newton run
    in the borrowed workspace [w] ({!Mna.with_dc}), the loop every solve
    of {!solve} and every time point of {!Tran} runs.  It starts at [x0]
    (which may be [w.x] itself) and iterates in [w.x]: [assemble w x]
    writes the system linearised at [x] into [w.rs] and [w.rhs] (a DC
    solve passes {!Mna.assemble_dc}, which needs no closure), the solution
    goes to [w.x_new], and each of the first [n_nodes] unknowns moves by
    at most [options.max_step].  The run converges when every unknown's
    Newton step is below [options.vtol], and fails on a singular system, a
    non-finite iterate or after [options.max_iterations] factorisations
    ([gmin] is the assembler's business).  Returns the factorisation
    count, negated when the run failed; a converged run leaves its
    solution in [w.x].  Beyond what [assemble] allocates, an iteration
    allocates nothing.  It counts nothing: [dcop.iterations] counts
    {!solve}'s runs only. *)

val solve :
  ?options:options -> ?x0_jitter:(int -> float) ->
  ?start:Yield_numeric.Vec.t -> ?sys:Mna.sys -> ?models:Mna.models ->
  Circuit.t -> (t, error) result
(** [x0_jitter k] is added to unknown [k] of the initial guess — the retry
    layer uses it to perturb the starting point between attempts.

    [start] is a warm start: an unknown vector of the system's size,
    typically the solution of a nearby circuit (a Monte Carlo session
    passes its nominal operating point).  The Newton stage then first
    runs one damped-Newton run from [start].  If that run does not
    converge, the chain without a start runs unchanged and with the same
    bits: Newton from the nodeset guess (jittered by [x0_jitter]), then
    gmin stepping, then source stepping.  So a start can only add a
    converged answer, never take one away.  Both Newton runs sit under
    the one [dcop.newton] fault check.  [start] is never written.  Each
    run begun at a start adds 1 to [dcop.warm_starts]; each of those that
    did not converge adds 1 to [dcop.warm_fallbacks].  The result's
    [iterations] are those of the run that converged.
    @raise Invalid_argument if [start] is not of the system's size.

    Structurally singular circuits ({!Topology.dc_issues}: a node with no DC
    path to ground, a loop of voltage sources) fail immediately with
    [Singular_system], before any factoring — previously gmin either masked
    them with a meaningless 0 V bias or burned the whole homotopy chain into
    a misclassified [No_convergence].

    The solve chain consults three fault-injection points
    ({!Yield_resilience.Fault}): [dcop.solve] fails the whole call with
    [No_convergence], while [dcop.newton] and [dcop.gmin] fail one homotopy
    stage each, forcing the gmin-stepping / source-stepping fallbacks.

    [sys] is the {!Mna.sys} solver session of the circuit's topology —
    callers that solve one topology many times build it once and pass it
    to every call; without it the call builds a dense one for itself.
    [models] patches per-device MOSFET models for this sample (see
    {!Mna.models}).

    Newton iterates in a DC workspace borrowed from [sys]: the chain
    leaves its answer there, and only the result copies it out, with the
    operating point of every MOSFET at it ({!Mna.mos_operating_points},
    47 words a MOSFET). *)

val solve_with_retry :
  ?options:options -> ?budget_s:float -> ?start:Yield_numeric.Vec.t ->
  ?sys:Mna.sys -> ?models:Mna.models -> Circuit.t -> (t, error) result
(** {!solve} under the [dcop.solve] retry policy (3 attempts): transient
    non-convergence is retried with a deterministic gaussian jitter
    (sigma 50 mV) on the initial guess; singular systems fail immediately.
    Accounting lands in the [retry.dcop.solve.*] metrics.  [start] goes to
    the first attempt only; the jittered retries start as without it.

    [budget_s] is an overall wall-clock budget for the whole call
    (converted to the absolute deadline {!Yield_resilience.Retry} takes):
    a retry that would overrun it is not launched — the failure counts as
    exhausted, plus [retry.dcop.solve.deadline_stopped].  The table-server
    request path uses the same mechanism against its per-request
    deadline. *)

val with_solution :
  ?options:options -> ?budget_s:float -> ?start:Yield_numeric.Vec.t ->
  ?sys:Mna.sys -> ?models:Mna.models -> ?sizes:Mna.sizes -> Circuit.t ->
  (Yield_numeric.Vec.t -> int -> 'a) -> ('a, error) result
(** [with_solution ... circuit k] is {!solve_with_retry} without the
    operating point: the same attempts, retries, fault checks and
    counters, and on success [Ok (k x iterations)], where [x] is the
    converged unknown vector in the DC workspace borrowed from [sys]
    ({!Mna.borrow_dc}) and [iterations] the result's [iterations].  [x] is
    the workspace's: [k] reads it while the workspace is still borrowed
    (a testbench evaluation assembles its AC system from it,
    {!Mna.Solution}) and must neither keep nor write it.  [sizes] gives
    the MOSFETs the evaluation's W and L at every assembly
    ({!Mna.sizes}), so a template circuit solves as one built with them.

    A call whose first attempt converges in its Newton stage, without
    [budget_s], allocates nothing but its [Ok] and what [k] allocates:
    the homotopy chain, the retry loop ({!Yield_resilience.Retry.settle})
    and the borrowing are closure-free, the counts reach their
    histograms as ints and no clock is read.  The fallbacks, retries and
    failures may allocate.
    {!solve_with_retry} is this with [k] building the {!t}. *)

val voltage : t -> Device.node -> float

val voltage_by_name : t -> Circuit.t -> string -> float
(** @raise Not_found for an unknown node name. *)

val branch_current : t -> string -> float
(** Current through the named voltage source.
    @raise Not_found if there is no such source. *)

val mos_op : t -> string -> Mosfet.op
(** @raise Not_found for an unknown MOSFET. *)

val pp : Circuit.t -> Format.formatter -> t -> unit
(** Human-readable operating-point report (node voltages and device bias). *)
