(** The paper's fitness: a min–max-normalised weighted summation of the
    objective values (equation 5), with the normalisation bounds tracked over
    every evaluation seen so far. *)

type normalizer

val create : int -> normalizer
(** [create m] tracks bounds for [m] objectives. *)

val observe : normalizer -> float array -> unit
(** Extend the per-objective min/max bounds.  Non-finite entries are
    ignored. *)

val observed : normalizer -> int
(** Number of (finite) observations folded in. *)

type state = { mins : float array; maxs : float array; seen : int }
(** Serialisable snapshot of the normalisation bounds, for WBGA
    checkpoint/resume: the bounds are folded over every evaluation seen, so
    a resumed run must restore them to score identically. *)

val save : normalizer -> state

val restore : normalizer -> state -> unit
(** @raise Invalid_argument on objective-count mismatch. *)

val normalise : normalizer -> float array -> float array
(** [(f_j - min_j) / (max_j - min_j)] per objective; an objective whose
    bounds are still degenerate normalises to 0.5. *)

val weighted_sum : normalizer -> weights:float array -> float array -> float
(** Equation (5).  Non-finite objective vectors score [neg_infinity]. *)
