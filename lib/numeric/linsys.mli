(** Solver-agnostic linear-system seam.

    Simulation engines size their MNA system once per topology, compile it
    against a {!backend}, and then assemble + solve through small records
    of closures ({!type-real} for DC/transient Newton systems,
    {!type-complex_sys} for AC systems of the form [G + jwC]).  Two
    backends exist, and both compile the topology's structural
    {!Pattern.t}:

    - [Dense] wraps {!Mat}/{!Lu}/{!Cmat} with the floating-point
      operations the engines performed before this seam existed, so
      results are byte-identical to the historical dense path.  Its real
      workspaces and [factor] need only the system size; its AC [sweep]
      follows the pattern's {!Pivot_path} plan, the pivot sequences
      partial pivoting takes on this topology, grown as sweeps meet them,
      and it leaves the plan for {!Cmat}'s elimination wherever the plan
      cannot promise the same bits.  Its workspaces reuse their buffers
      across factorisations.
    - [Csr] uses {!Csr}: the structural nonzeros get a fill-reducing
      ordering, a symbolic factorisation and a compiled elimination
      schedule once per topology at [compile] time; per-sample work only
      replays that schedule over the numeric values of the cached fill
      pattern, in buffers its workspaces own.

    Every workspace also exposes the float arrays its stamps accumulate
    into, indexed by {!slot}, so an engine can resolve each stamp's slot
    once per topology and then write values without a lookup.  An entry
    outside the [n]x[n] system, or on [Csr] outside the pattern, raises
    [Invalid_argument]; it never lands on another entry.  [Dense] accepts
    an entry outside the pattern, and its sweep then runs the generic
    elimination.

    Compiled systems are safe to share across domains (a dense plan grows
    by compare-and-set); {!val-real} / {!val-complex} allocate a mutable
    numeric workspace, which one domain uses at a time.  Who allocates
    one: the simulator's [Mna.sys] keeps the workspaces its DC solves and
    AC transfers use on a shelf with compare-and-set busy flags, and each
    call borrows one and gives it back, so a worker allocates one per system
    it solves in, not one per call; the transient and noise engines, the
    corner proof and the tests allocate their own.  A workspace keeps no
    result between calls: [reset] / [creset] zero the assembled values
    and every factorisation overwrites its buffers, so a reused workspace
    gives the bits of a fresh one. *)

(** Structural nonzero pattern of a square system. *)
module Pattern : sig
  type t
  (** Immutable pattern: deduplicated, sorted rows. *)

  type builder

  val builder : int -> builder
  (** [builder n] starts a pattern for an [n]x[n] system. *)

  val add : builder -> int -> int -> unit
  (** Record a strong structural entry — one assembled to a numerically
      nonzero value by every analysis sharing the pattern.  Duplicates are
      fine; [add] upgrades a previously weak entry. *)

  val add_weak : builder -> int -> int -> unit
  (** Record a weak structural entry: present in the pattern, but possibly
      zero in some assemblies (capacitor-only MNA positions vanish in a DC
      assembly).  The csr backend draws pivots from strong entries first,
      so the no-pivoting factorisation never lands on a weak zero.  Never
      downgrades an entry already recorded with [add]. *)

  val build : builder -> t

  val size : t -> int
  val rows : t -> int array array
  (** [rows p].(i) = sorted structural columns of row [i]. *)

  val strong_rows : t -> int array array
  (** Row-wise subset of {!rows} holding only the strong entries. *)

  val mem : t -> int -> int -> bool

  val builds : unit -> int
  (** Global count of [build] calls in this process — lets tests assert
      that a topology's pattern is built once and cached, not per sample. *)
end

type t
(** A compiled system: the pattern's pivot-path plan for [Dense], a
    symbolic factorisation for [Csr].  Domain-shareable; its numeric
    workspaces ({!val-real} / {!val-complex}) are not. *)

val slot : t -> int -> int -> int
(** [slot t i j] is the value slot of entry [(i, j)]: the index into the
    [values] (or [gvalues] / [cvalues]) array of every workspace of [t]
    that the entry accumulates into.  Dense slots are [i*n + j]; csr
    slots come from {!Csr.slot}.  An engine that stamps one topology many
    times looks its slots up once and then writes the value arrays
    directly ([Mna]'s stamp plan); [add] is this lookup plus one [+.].
    @raise Invalid_argument for an entry outside the [n]x[n] system or,
    on [Csr], outside the analysed pattern. *)

type real = {
  rn : int;  (** system size *)
  owner : t;  (** the compiled system whose {!slot}s index [values] *)
  values : float array;
      (** the assembled entries, by {!slot} of [owner]: [reset] zeroes
          them, [add i j x] adds [x] to [values.(slot owner i j)] and
          [solve] factors them.  A caller may accumulate into them
          directly, with slots of [owner] only. *)
  reset : unit -> unit;  (** zero the assembled values *)
  add : int -> int -> float -> unit;  (** accumulate an entry *)
  solve : float array -> float array;
      (** factor the assembled system and solve; leaves assembled values
          intact.  [solve b] is [solve_into b] on a fresh vector.
          @raise Lu.Singular when the factorisation breaks down *)
  solve_into : float array -> float array -> unit;
      (** [solve_into b x]: [solve b], written into [x], which must not be
          [b]; allocates nothing.  A Newton loop iterates in it.
          @raise Invalid_argument if [b] or [x] is not of size [rn].
          @raise Lu.Singular as [solve] *)
}
(** Mutable workspace for one real system (DC / transient Newton step). *)

type complex_sys = {
  cn : int;
  cowner : t;  (** the compiled system whose {!slot}s index the values *)
  gvalues : float array;  (** assembled G, by {!slot} of [cowner] *)
  cvalues : float array;  (** assembled C, by {!slot} of [cowner] *)
  creset : unit -> unit;  (** zero both assembled matrices *)
  add_g : int -> int -> float -> unit;  (** accumulate into G *)
  add_c : int -> int -> float -> unit;  (** accumulate into C *)
  factor : omega:float -> Complex.t array -> Complex.t array;
      (** factor [G + j*omega*C] once; the returned solver may be applied
          to many right-hand sides, and is valid until the next [factor]
          on the same workspace, which may overwrite the buffers it reads.
          @raise Lu.Singular on breakdown *)
  sweep :
    Complex.t array -> freqs:float array -> out:int -> re:float array ->
    im:float array -> (int -> int -> int);
      (** The AC sweep's entry: [sweep rhs ~freqs ~out ~re ~im] takes one
          transfer's right-hand side and returns its point solver.
          [point k (-1)] factors [G + j*omega*C] at
          [omega = 2 *. Float.pi *. freqs.(k)] and writes the real and
          imaginary parts of entry [out] of the solution into [re.(k)]
          and [im.(k)], nothing else; [point k k']
          does the same for [freqs.(k)] and then [freqs.(k')].  Each
          response has the bits of entry [out] of a [factor ~omega] solve
          for [rhs], and a breakdown raises what factoring [freqs.(k)] and
          then [freqs.(k')] would raise first.  A point returns how many
          of its frequencies ran the generic elimination instead of the
          backend's compiled one: always 0 on csr, which factors a pair in
          one pass of its two-lane kernel; on dense, the frequencies
          {!Pivot_path}'s plan could not carry (an omega that is not a
          finite positive number, an underflowing [omega *. C], a nonzero
          or -0 entry of G or C outside the pattern or a -0 inside it, a
          non-finite multiplier, a plan at its growth bound).  Dense runs
          a pair through one pass while both frequencies pick the same
          pivots.  Back substitution stops at [out].  A negative [out]
          factors without solving and writes zeros.  A point allocates
          nothing, and neither does [sweep] after a workspace's first:
          the arguments wait in the workspace, and the point solver it
          returns is the workspace's own.  The point solver reads
          G and C at every point; dense checks their structure when
          [sweep] is called, so they must not change between a [sweep]
          and its points.  It shares the workspace with [factor]: each is
          valid until the next [sweep] or [factor] on it.
          @raise Invalid_argument if [rhs] is not of size [cn] or
          [out >= cn].
          @raise Lu.Singular on breakdown *)
}
(** Mutable workspace for one complex system of the form [G + jwC]. *)

type backend = Dense | Csr

val backend_name : backend -> string
val backend_of_string : string -> backend option
val backend_names : string list
(** Valid [--solver] names, in display order. *)

val compile : backend -> Pattern.t -> t
(** [Dense] keeps the pattern for its sweep's pivot-path plan, which it
    builds and grows when sweeps first need it; [Csr] analyses it now.
    @raise Lu.Singular when [Csr] finds the pattern structurally
    singular. *)

val compile_deferred : backend -> size:int -> (unit -> Pattern.t) -> t
(** [compile_deferred backend ~size pattern] is [compile backend
    (pattern ())] for a pattern of size [size], except that [Dense] calls
    [pattern] only when its AC sweep first needs the plan: a dense system
    that only solves real systems never builds its pattern.  [pattern]
    must be pure; domains racing to build the plan may each call it.
    @raise Lu.Singular as {!compile}. *)

val real : t -> real
val complex : t -> complex_sys
val name : t -> string
val size : t -> int
