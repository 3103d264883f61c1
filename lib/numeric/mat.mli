(** Dense row-major float matrices. *)

type t = private { rows : int; cols : int; data : float array }
(** Entry [(i, j)] is [data.(i * cols + j)].  The record is private so the
    numeric kernels ({!Lu}, {!Cmat}, {!Linsys}) can index [data] directly
    instead of calling {!get}/{!set} per entry; the array stays mutable. *)

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t

val of_arrays : float array array -> t
(** @raise Invalid_argument on ragged input or zero rows. *)

val copy : t -> t

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] performs [m.(i,j) <- m.(i,j) + x]; the fundamental
    operation for MNA stamping. *)

val fill : t -> float -> unit

val mul : t -> t -> t
(** Matrix product.  @raise Invalid_argument on inner-dimension mismatch. *)

val mul_vec : t -> Vec.t -> Vec.t

val transpose : t -> t

val add : t -> t -> t

val sub : t -> t -> t

val scale : float -> t -> t

val max_abs : t -> float

val equal_eps : float -> t -> t -> bool
(** [equal_eps eps a b] is true when the two matrices have the same shape and
    agree entrywise within [eps]. *)

val pp : Format.formatter -> t -> unit
