(** Complex dense matrices and LU solves, for small-signal AC analysis where
    the MNA system is [G + jwC]. *)

type t = private { rows : int; cols : int; re : float array; im : float array }
(** Entry [(i, j)] is [{re = re.(i * cols + j); im = im.(i * cols + j)}];
    private for the same reason as {!Mat.t}. *)

val create : int -> int -> t
(** Zero matrix. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> Complex.t

val set : t -> int -> int -> Complex.t -> unit

val of_real : ?imag_scale:float -> Mat.t -> Mat.t -> t
(** [of_real g c ~imag_scale:w] builds [g + j*w*c].  Shapes must agree. *)

val mul_vec : t -> Complex.t array -> Complex.t array

val solve : t -> Complex.t array -> Complex.t array
(** [solve m b] is [x] with [m x = b], by Gaussian elimination with partial
    pivoting (by magnitude) on a copy of [m] that eliminates into a copy of
    [b] as it goes, then back substitution.  Neither [m] nor [b] is
    modified; each call redoes the whole elimination.
    @raise Invalid_argument on shape mismatch.
    @raise Lu.Singular when a pivot vanishes. *)

type work = private {
  re : float array;  (** the working copy of an [n]x[n] matrix, row-major as {!t} *)
  im : float array;
  xr : float array;  (** the right-hand side the elimination carries along *)
  xi : float array;
  nz : int array;  (** scratch: the pivot-row columns a step updates *)
}
(** Scratch for {!solve_with} and {!solve_entry}.  A kernel that loads
    the working copy and the right-hand side itself runs {!eliminate} and
    {!entry_into} on them, the two halves of {!solve_entry}. *)

val work : int -> work

val sibling : work -> work
(** [sibling w] is a fresh workspace of [w]'s size that shares [w]'s
    column scratch: the two hold their own systems but must not eliminate
    at the same time. *)

val eliminate : work -> skip_zeros:bool -> from:int -> unit
(** [eliminate w ~skip_zeros ~from] runs steps [from] .. n - 1 of the
    elimination {!solve_with} performs on [w]'s working copy and
    right-hand side.  Step k takes as pivot the first row among k .. n - 1
    whose entry in column k has the largest squared magnitude (strict
    [>]), swaps it into row k and eliminates column k below it.  Steps
    before [from] must already be done.
    @raise Lu.Singular when a pivot vanishes. *)

val entry_into : work -> int -> re:float array -> im:float array -> int -> unit
(** [entry_into w k ~re ~im j] back-substitutes [w]'s eliminated working
    copy from row n - 1 up to row [k] and writes the two parts of entry
    [k] of the solution into [re.(j)] and [im.(j)]; a negative [k] writes
    zeros.  It allocates nothing.
    @raise Invalid_argument if [k >= n]. *)

val solve_with : work -> skip_zeros:bool -> t -> Complex.t array -> Complex.t array
(** [solve_with w ~skip_zeros m b] is [solve m b] computed in [w]'s buffers
    instead of fresh ones, with the same floating-point operations.  With
    [skip_zeros] the matrix update skips the columns of each pivot row that
    are exactly zero in both parts; that is bit-identical to the full update
    only when neither part of [m] has a -0 entry (see
    {!Lu.factor_into}).
    @raise Invalid_argument as {!solve}, or if [w] is not [m]'s size. *)

val solve_entry :
  work -> skip_zeros:bool -> t -> re:float array -> im:float array -> int -> Complex.t
(** [solve_entry w ~skip_zeros m ~re ~im k] is entry [k] of
    [solve_with w ~skip_zeros m b] for the right-hand side [b] whose parts
    are [re] and [im], with the same bits: the same elimination, and back
    substitution stopped at row [k].  A negative [k] eliminates and
    returns [Complex.zero].
    @raise Invalid_argument as {!solve_with}, or if [k >= n].
    @raise Lu.Singular when a pivot vanishes. *)
