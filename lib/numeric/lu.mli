(** LU factorisation with partial pivoting, for the real MNA systems solved by
    the DC operating-point analysis. *)

exception Singular of int
(** Raised when no usable pivot exists in the given column. *)

type t
(** A factorisation of a square matrix. *)

val factor : Mat.t -> t
(** [factor m] computes [P m = L U].  [m] is not modified.
    @raise Invalid_argument if [m] is not square.
    @raise Singular if a pivot column is numerically zero. *)

val create : int -> t
(** [create n] is a factorisation buffer for [n]x[n] matrices, to be filled
    by {!factor_into}; until then it holds no usable factorisation. *)

val factor_into : t -> skip_zeros:bool -> Mat.t -> unit
(** [factor_into f ~skip_zeros m] factors [m] into [f]'s buffers, replacing
    the factorisation [f] held, with the same floating-point operations as
    {!factor}.  With [skip_zeros] the matrix update skips the exactly-zero
    columns of each pivot row; that is bit-identical to the full update
    only when [m] has no -0 entry, which holds for any matrix built by
    {!Mat.create} or [Mat.fill m 0.] and {!Mat.add_to}.
    @raise Invalid_argument if [m] is not the size of [f].
    @raise Singular as {!factor}; [f] then holds no usable factorisation. *)

val solve : t -> Vec.t -> Vec.t
(** [solve f b] returns [x] with [m x = b]: {!solve_into} on a fresh
    vector. *)

val solve_into : t -> Vec.t -> Vec.t -> unit
(** [solve_into f b x] writes the solution of [m x = b] into [x] and
    allocates nothing.
    @raise Invalid_argument if [b] or [x] is not of the factored size, or
    [x] is [b]. *)

val solve_in_place : t -> Vec.t -> unit
(** Like {!solve} but overwrites [b] with the solution. *)

val solve_system : Mat.t -> Vec.t -> Vec.t
(** One-shot [factor] + [solve]. *)

val det : t -> float
(** Determinant of the factored matrix (sign includes the permutation). *)
