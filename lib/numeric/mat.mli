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

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] performs [m.(i,j) <- m.(i,j) + x]; the fundamental
    operation for MNA stamping. *)

val fill : t -> float -> unit

val mul_vec : t -> Vec.t -> Vec.t

val transpose : t -> t
