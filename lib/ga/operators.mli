(** Genetic operators: selection, crossover, mutation. *)

type selection =
  | Tournament of int  (** pick the best of k uniformly drawn individuals *)

type crossover = One_point | Blend of float  (** BLX-alpha *)

type mutation = Gaussian of { sigma : float; rate : float }

val select : selection -> Yield_stats.Rng.t -> fitness:float array -> int
(** Index of the selected individual.
    @raise Invalid_argument on an empty population. *)

val cross :
  crossover -> Yield_stats.Rng.t -> Genome.t -> Genome.t -> Genome.t * Genome.t
(** Two offspring; parents are not modified.  Children are clamped to
    [0, 1]. *)

val mutate : mutation -> Yield_stats.Rng.t -> Genome.t -> unit
(** In-place mutation followed by clamping. *)
