(** Sparse LU over a compressed-sparse-row filled pattern.

    [analyse] runs once per circuit topology: it computes a row matching
    giving a zero-free diagonal, a greedy minimum-degree ordering, the
    up-looking symbolic fill, and then compiles the elimination itself
    into a schedule of value-slot indices.  The per-sample numeric work
    ([rreset] / [radd] / [rsolve], and the complex [G + jwC] variant) only
    touches value slots of that fixed pattern: each factorisation replays
    the schedule in place.  No numeric pivoting is performed; a vanishing
    pivot raises {!Lu.Singular} like the dense path, and one
    iterative-refinement step against the assembled values recovers the
    accuracy partial pivoting would have bought. *)

type symbolic
(** Immutable result of the symbolic analysis; safe to share across
    domains.  It holds the permutations, the filled pattern (its diagonal
    slots included), the flat index that maps an original entry [(i, j)]
    to its value slot, and the compiled elimination as flat int arrays:
    for each L entry [(i, k)] (row i's below-diagonal slots, in ascending
    k), the slot of pivot [(k, k)] and the run of (target, source) slot
    pairs its update writes, row k's U tail [(k, j)] mapped onto row i's
    [(i, j)].  The schedule holds one factorisation's update count of
    pairs, not n{^2} entries.  Per-worker numeric state lives in {!rwork}
    / {!cwork}. *)

val analyse : ?strong_rows:int array array -> n:int -> int array array -> symbolic
(** [analyse ~n rows] analyses an [n]x[n] pattern whose row [i] has the
    (sorted, deduplicated) structural columns [rows.(i)].

    [strong_rows] (default: [rows]) restricts the zero-free-diagonal
    matching: pivots are drawn from these entries first, and the full
    pattern is only consulted for columns the strong entries cannot
    cover.  Callers pass the subset guaranteed numerically nonzero in
    every assembly (e.g. MNA conductance stamps, but not capacitor-only
    positions which vanish in a DC assembly) so the no-pivoting
    factorisation never routes a pivot through a zero.  Must be a
    row-wise subset of [rows].
    @raise Lu.Singular if the pattern is structurally singular.
    @raise Invalid_argument if an update of the compiled elimination would
    land outside the filled pattern, or an index of the compiled schedule
    lies outside its range (the kernels follow it without a bounds
    check), which means the analysis is broken. *)

val size : symbolic -> int

val slot : symbolic -> int -> int -> int
(** [slot s i j] is the value slot of original entry [(i, j)]: the index
    into {!rvalues}, {!gvalues} and {!cvalues} that {!radd}, {!cadd_g} and
    {!cadd_c} accumulate into.  A search of row [i]; allocates nothing.
    @raise Invalid_argument for any entry outside the analysed pattern,
    including a row or column outside [\[0, n)]. *)

(** {1 Real systems} *)

type rwork
(** Mutable per-worker numeric state for one real system: the assembled
    values, the factor (one float per slot of the filled pattern) and the
    permuted solution and refinement vectors.  Never share one across
    domains. *)

val rwork : symbolic -> rwork

val rvalues : rwork -> float array
(** The assembled values, indexed by {!slot}: the workspace's own array,
    which {!rreset} zeroes and {!rsolve} factors: [radd w i j x] adds
    [x] to [(rvalues w).(slot s i j)]. *)

val rreset : rwork -> unit
val radd : rwork -> int -> int -> float -> unit
(** Accumulate into an entry, in original (unpermuted) coordinates.
    Allocates nothing.
    @raise Invalid_argument for any entry outside the analysed pattern,
    including a row or column outside [\[0, n)]. *)

val rsolve : rwork -> float array -> float array
(** Factor the assembled values and solve; the assembled values are left
    intact so [rsolve] may be called repeatedly.  The factors and scratch
    live in the workspace, so a call allocates only the solution it
    returns: it is {!rsolve_into} on a fresh vector.
    @raise Lu.Singular on a vanishing pivot; the workspace stays usable. *)

val rsolve_into : rwork -> float array -> float array -> unit
(** [rsolve_into w b x] is {!rsolve}, writing the solution into [x]; it
    allocates nothing.
    @raise Invalid_argument if [b] or [x] is not of size n.
    @raise Lu.Singular as {!rsolve}. *)

(** {1 Complex systems of the form G + jwC} *)

type cwork
(** Mutable per-worker state for one complex system, like {!rwork}: the
    assembled G and C, the real and imaginary parts of the factor, and the
    solve and refinement vectors. *)

val cwork : symbolic -> cwork

val gvalues : cwork -> float array
val cvalues : cwork -> float array
(** The assembled G and C, indexed by {!slot}, as {!rvalues}. *)

val creset : cwork -> unit
val cadd_g : cwork -> int -> int -> float -> unit
val cadd_c : cwork -> int -> int -> float -> unit
(** [cadd_g]/[cadd_c] accumulate into G/C like {!radd}.
    @raise Invalid_argument for any entry outside the analysed pattern. *)

val cfactor : cwork -> omega:float -> Complex.t array -> Complex.t array
(** [cfactor w ~omega] factors [G + j*omega*C] once and returns a solver
    usable for many right-hand sides at that frequency.  The factors live
    in [w], so the solver stays valid until the next [cfactor] or
    {!csweep} on [w] (as {!Linsys.complex_sys}'s [factor] says), and each
    solve allocates only the solution it returns.
    @raise Lu.Singular on a vanishing pivot; the workspace stays usable. *)

val csweep :
  cwork -> Complex.t array -> freqs:float array -> out:int -> re:float array ->
  im:float array -> int -> int -> int
(** [csweep w b ~freqs ~out ~re ~im] loads the right-hand side [b] of one
    AC transfer into [w], row-permuted, and returns its point solver:
    [point k (-1)] factors [G + j*2*pi*freqs.(k)*C] and writes the two
    parts of entry [out] of its solution into [re.(k)] and [im.(k)];
    [point k k'] does the same for
    [freqs.(k)] and [freqs.(k')] together, in one pass of a two-lane
    elimination, solve and refinement step.  A point returns 0, the count
    {!Linsys.complex_sys}'s [sweep] asks for: every frequency replays the
    compiled schedule.  Either writes the bits that
    entry [out] of a {!cfactor} solve at that [omega] holds, and raises
    what a {!cfactor} at [freqs.(k)] and then one at [freqs.(k')] would
    raise first.  A negative [out] factors without solving and writes
    zeros.  A point allocates nothing, and neither does [csweep] after
    the first on [w]: its arguments wait in [w], and the point solver is
    [w]'s own, which each [csweep] retargets.  The
    point solver shares [w] with {!cfactor}: it stays valid until the next
    [csweep] or [cfactor] on [w] or a solve of the latter.
    @raise Invalid_argument if [b] is not of size n or [out >= n].
    @raise Lu.Singular on a vanishing pivot; the workspace stays usable. *)
