(** Solver-agnostic linear-system seam.

    Simulation engines size their MNA system once per topology, compile it
    against a {!backend}, and then assemble + solve through small records
    of closures ({!type-real} for DC/transient Newton systems,
    {!type-complex_sys} for AC systems of the form [G + jwC]).  Two
    backends exist:

    - [Dense] wraps {!Mat}/{!Lu}/{!Cmat} with the floating-point
      operations the engines performed before this seam existed, so
      results are byte-identical to the historical dense path.  It needs
      only the system size, never a structural pattern.  Its workspaces
      reuse their buffers across factorisations.
    - [Csr] uses {!Csr}: the structural nonzeros, described as a
      {!Pattern.t}, get a fill-reducing ordering, a symbolic factorisation
      and a compiled elimination schedule once per topology at [compile]
      time; per-sample work only replays that schedule over the numeric
      values of the cached fill pattern, in buffers its workspaces own.

    Every workspace also exposes the float arrays its stamps accumulate
    into, indexed by {!slot}, so an engine can resolve each stamp's slot
    once per topology and then write values without a lookup.  On either
    backend an entry outside the [n]x[n] system (or the csr pattern)
    raises [Invalid_argument]; it never lands on another entry.

    Compiled systems are immutable and safe to share across domains;
    {!val-real} / {!val-complex} allocate the mutable per-worker numeric
    workspaces. *)

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
(** A compiled system: a size for [Dense], a symbolic factorisation for
    [Csr].  Immutable and domain-shareable; call {!val-real} /
    {!val-complex} per worker for numeric workspaces. *)

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
          intact. @raise Lu.Singular when the factorisation breaks down *)
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
}
(** Mutable workspace for one complex system of the form [G + jwC]. *)

type backend = Dense | Csr

val backend_name : backend -> string
val backend_of_string : string -> backend option
val backend_names : string list
(** Valid [--solver] names, in display order. *)

val compile : backend -> Pattern.t -> t
(** [Dense] reads only the pattern's size. *)

val dense_of_size : int -> t
(** The dense system of an [n]x[n] matrix; what [compile Dense] gives for
    any pattern of that size, without building one. *)

val real : t -> real
val complex : t -> complex_sys
val name : t -> string
val size : t -> int
