(** Pareto dominance and non-dominated front extraction (§3.3 of the
    paper). *)

val dominates : maximise:bool array -> float array -> float array -> bool
(** [dominates ~maximise a b]: [a] is at least as good as [b] in every
    objective and strictly better in at least one. *)

val non_dominated : maximise:bool array -> float array array -> int list
(** Indices of the non-dominated points, ascending; O(n^2), any number of
    objectives. *)

val front_2d : float array array -> int list
(** Fast path for two maximised objectives: O(n log n) sort-and-scan.
    Coincident duplicate points are all retained (matching the paper, which
    counts every non-dominated circuit candidate). *)
