(** Sparse LU over a compressed-sparse-row filled pattern.

    [analyse] runs once per circuit topology: it computes a row matching
    giving a zero-free diagonal, a greedy minimum-degree ordering, and the
    up-looking symbolic fill.  The per-sample numeric work ([rreset] /
    [radd] / [rsolve], and the complex [G + jwC] variant) only touches
    value slots of that fixed pattern.  No numeric pivoting is performed;
    a vanishing pivot raises {!Lu.Singular} like the dense path, and one
    iterative-refinement step against the assembled values recovers the
    accuracy partial pivoting would have bought. *)

type symbolic
(** Immutable result of the symbolic analysis, including the flat index
    that maps an original entry [(i, j)] to its value slot; safe to share
    across domains.  Per-worker numeric state lives in {!rwork} /
    {!cwork}. *)

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
    @raise Lu.Singular if the pattern is structurally singular. *)

val size : symbolic -> int
val nnz : symbolic -> int
(** Stored entries of the filled pattern (original entries + fill-in). *)

(** {1 Real systems} *)

type rwork
(** Mutable per-worker numeric state for one real system: the assembled
    values and every factor and solve buffer.  Never share one across
    domains. *)

val rwork : symbolic -> rwork
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
    returns.
    @raise Lu.Singular on a vanishing pivot; the workspace stays usable. *)

(** {1 Complex systems of the form G + jwC} *)

type cwork
(** Mutable per-worker state for one complex system, factor and solve
    buffers included, like {!rwork}. *)

val cwork : symbolic -> cwork
val creset : cwork -> unit
val cadd_g : cwork -> int -> int -> float -> unit
val cadd_c : cwork -> int -> int -> float -> unit
(** [cadd_g]/[cadd_c] accumulate into G/C like {!radd}.
    @raise Invalid_argument for any entry outside the analysed pattern. *)

val cfactor : cwork -> omega:float -> Complex.t array -> Complex.t array
(** [cfactor w ~omega] factors [G + j*omega*C] once and returns a solver
    usable for many right-hand sides at that frequency.  The factors live
    in [w], so the solver stays valid until the next [cfactor] on [w]
    (as {!Linsys.complex_sys}'s [factor] says), and each solve allocates
    only the solution it returns.
    @raise Lu.Singular on a vanishing pivot; the workspace stays usable. *)
