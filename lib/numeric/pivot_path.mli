(** The dense backend's [G + jwC] workspace, and the pivot-path plan its AC
    sweep follows.

    Partial pivoting picks each pivot by value, so a dense elimination has
    no schedule fixed in advance.  On one topology, though, it follows few
    pivot sequences: a whole OTA or Miller testbench sweep takes 4 or 6.
    Each sequence fixes which entries the elimination can make nonzero.
    The plan is a trie of the sequences met so far: the node for step k
    lists the rows whose column-k entry can hold the pivot, and its child
    for each pivot row met lists the columns the row swap moves, the pivot
    row's structural columns and the rows to eliminate.  A sweep point
    writes [G + jwC] on the pattern's entries of its elimination buffer,
    scans only the listed rows for the pivot (with {!Cmat.eliminate}'s
    strict [>]), and updates only structural entries.  A pair of
    frequencies goes through one pass while both pick the same pivot.

    Every point gives the bits {!Cmat.solve_entry} gives with the zero
    skip [factor] chooses: where the argument for that (pivot_path.ml)
    does not hold, the point runs {!Cmat.eliminate} from the step it
    reached.  A plan grows lazily, a path the first time a sweep meets it,
    published by compare-and-set, and stops growing at a fixed size. *)

type t
(** The plan of one structural pattern.  Domain-shareable. *)

val create : n:int -> (unit -> int array array) -> t
(** [create ~n rows]: the plan of an [n]x[n] pattern whose row [i] holds
    the columns [rows ().(i)], with no path grown yet.  Nothing is built,
    and [rows] is not called, until a sweep needs the plan; domains that
    race to build it may each call [rows] once.  The first sweep raises
    [Invalid_argument] if [rows ()] is not [n] rows of columns in
    [0, n). *)

val size : t -> int

val grown : t -> int
(** Children the plan holds: one per (prefix, pivot row) met so far. *)

type work
(** A worker's numeric workspace: the assembled G and C and two
    elimination buffers. *)

val work : t -> work

val gvalues : work -> float array
(** Assembled G, entry (i, j) at [i*n + j]; callers accumulate into it. *)

val cvalues : work -> float array
(** Assembled C, as {!gvalues}. *)

val reset : work -> unit
(** Zero G and C. *)

val factor : work -> omega:float -> Complex.t array -> Complex.t array
(** [factor w ~omega] is {!Cmat.solve_with} of [G + j*omega*C], with the
    zero skip exact for this pencil: see {!Linsys.complex_sys}. *)

val sweep :
  work -> Complex.t array -> freqs:float array -> out:int -> re:float array ->
  im:float array -> int -> int -> int
(** [sweep w rhs ~freqs ~out ~re ~im]: {!Linsys.complex_sys}'s [sweep],
    dense.  Each point writes entry [out] of the solution at [freqs.(k)]
    with the bits of {!Cmat.solve_entry} on the pencil [factor] builds,
    and returns the number of its frequencies that ran {!Cmat.eliminate}
    for some step instead of the plan.  The sweep's arguments wait in
    [w] and the point solver is [w]'s own, made by its first sweep, so
    beginning a sweep allocates nothing; each sweep on [w] retargets it.
    @raise Invalid_argument if [rhs] is not of size n or [out >= n].
    @raise Lu.Singular on breakdown *)
