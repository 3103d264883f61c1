(** Scattered table over a one-dimensional manifold.

    The paper's two-input tables ([lp_i = table(gain_prop, pm_prop)]) are
    sampled on the Pareto front, which is a curve — not a grid — in the
    (gain, PM) plane.  This module parametrises the sample points by arc
    length (in the per-dimension normalised input space), projects queries
    onto the polyline through the points, and interpolates every output
    column along the arc with the requested spline degree. *)

type t

val create :
  ?control:Control.axis ->
  inputs:float array array ->
  columns:(string * float array) list ->
  unit -> t
(** [inputs] is an [n x k] array of sample coordinates ordered along the
    curve; each column has [n] values.  Consecutive duplicate points are
    merged, and points closer than 1e-3 of the total arc length are
    decimated — near-coincident knots make
    higher-degree splines ring.  The first and last points are always kept.
    @raise Invalid_argument on shape mismatch or fewer than two distinct
    points. *)

val dimension : t -> int

val knot_arcs : t -> float array
(** Arc coordinates of the (merged, decimated) knots, strictly increasing
    from 0 to the polyline's total arc length (normalised space). *)

val bracket : t -> float -> int * int * float
(** [bracket t arc] is [(i, j, u)]: the knot interval containing [arc]
    ([j = i + 1] except at the ends) and the local parameter
    [u = (arc - arc_i) / (arc_j - arc_i)] clamped to [0, 1]. *)

val project : t -> float array -> float * float
(** [project t q] is [(arc, distance)]: the arc coordinate of the closest
    point of the polyline to [q] and the Euclidean distance to it, both in
    normalised space.  The distance is a model-trust diagnostic: queries far
    from the front are extrapolations in disguise. *)

val eval : t -> string -> float array -> float
(** [eval t column q]: interpolated column value at the projection of [q].
    @raise Not_found for an unknown column. *)

val eval_at_arc : t -> string -> float -> float
(** Direct evaluation at an arc coordinate between 0 and the total arc
    length. *)
