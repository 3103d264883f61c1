(** Descriptive statistics for Monte Carlo result streams. *)

type t
(** A running (Welford) accumulator; O(1) memory, numerically stable. *)

val empty : t

val add : t -> float -> t
(** Functional update; cheap record copy. *)

val of_array : float array -> t

val count : t -> int

val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance; [nan] with fewer than two samples. *)

val stddev : t -> float

val min_value : t -> float

val max_value : t -> float

(** Order statistics and histograms need the retained sample. *)

val quantile : float array -> float -> float
(** [quantile xs p] is the p-quantile (linear interpolation between order
    statistics).  Does not modify [xs].
    @raise Invalid_argument on empty input or p outside [0, 1]. *)

val median : float array -> float

type histogram = { edges : float array; counts : int array }
(** [edges] has one more element than [counts]. *)

val histogram : ?bins:int -> float array -> histogram
(** Equal-width histogram over the data range (defaults to 20 bins).
    @raise Invalid_argument on empty input. *)
