(** Dense float vectors.

    A thin layer over [float array] providing the handful of operations the
    rest of the library needs.  Vectors are mutable; functions whose name ends
    in [_into] write their result into an existing vector, everything else
    allocates. *)

type t = float array

val create : int -> t
(** [create n] is a fresh zero vector of length [n]. *)

val init : int -> (int -> float) -> t

val dim : t -> int

val fill : t -> float -> unit

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] copies [src] into [dst]; dimensions must agree. *)

val axpy : alpha:float -> x:t -> y:t -> unit
(** [axpy ~alpha ~x ~y] performs [y <- alpha * x + y] in place. *)

val dot : t -> t -> float

val norm_inf : t -> float
(** Maximum absolute entry; [0.] for the empty vector. *)

val max_abs_diff : t -> t -> float
(** [max_abs_diff a b] is [norm_inf (sub a b)] without the allocation. *)

val has_neg_zero : t -> bool
(** Whether some entry is [-0.]. *)

val map : (float -> float) -> t -> t

val linspace : float -> float -> int -> t
(** [linspace a b n] is [n >= 2] evenly spaced points from [a] to [b]
    inclusive.  @raise Invalid_argument if [n < 2]. *)

val logspace : float -> float -> int -> t
(** [logspace a b n] is [n] points spaced evenly on a log scale from [a] to
    [b]; both must be strictly positive.  @raise Invalid_argument otherwise. *)
