(** Outward-rounded interval arithmetic and a small dataflow driver — the
    abstract-interpretation core shared by the lint passes.

    Arithmetic results are widened by one ulp on each side, so an interval
    computed here always encloses the exact real result; a lint message that
    says "provably outside" on the strength of {!disjoint} or {!subset} is
    sound against floating-point rounding.  {!Ac_tran_lint} uses intervals
    to bound RC/gm-C time constants from device value ranges; {!Va_lint}
    uses them to prove an inflated spec window stays inside a table domain. *)

type t = private { lo : float; hi : float }

val make : float -> float -> t
(** @raise Invalid_argument when [lo > hi] or either bound is NaN. *)

val point : float -> t

val whole : t
(** [[-inf, +inf]]. *)

val zero : t

val of_bounds : float -> float -> t
(** Like {!make} but order-insensitive. *)

val hull : t -> t -> t
(** Smallest interval containing both (exact, no widening). *)

val hull_list : t list -> t
(** @raise Invalid_argument on an empty list. *)

val width : t -> float

val contains : t -> float -> bool

val subset : t -> t -> bool
(** [subset a b] is true when [a] lies entirely inside [b]. *)

val disjoint : t -> t -> bool

val intersect : t -> t -> t option

val add : t -> t -> t

val neg : t -> t

val sub : t -> t -> t

val mul : t -> t -> t
(** [0 * inf] is taken as [0] (the zero factor is exact). *)

val inv : t -> t
(** An interval spanning zero inverts to a half-line or {!whole}. *)

val div : t -> t -> t
(** Direct endpoint case analysis (single outward rounding).  A divisor that
    touches zero only at an endpoint yields the tight half-line; a divisor
    spanning zero in its interior yields {!whole}. *)

val pow_int : t -> int -> t
(** [pow_int a n] encloses [{x^n | x in a}]; even powers of a zero-spanning
    interval bottom out at exactly [0.].  Negative [n] goes through {!inv}.
    @raise Invalid_argument when [n] is [min_int]. *)

val monotone_incr : ?ulps:int -> (float -> float) -> t -> t
(** Push an interval through a monotone non-decreasing map by evaluating the
    endpoints, widening the result by [ulps] (default 4) ulps per side to
    cover the map's own rounding error.  Soundness is the caller's burden:
    the map must really be monotone over the interval, and [ulps] must bound
    its evaluation error.  @raise Invalid_argument when the map returns NaN. *)

val monotone_decr : ?ulps:int -> (float -> float) -> t -> t
(** {!monotone_incr} for monotone non-increasing maps. *)

val widen : ulps:int -> t -> t
(** Widen both bounds outward by [ulps] ulps — slack for values produced by
    library code (e.g. [Complex.norm], [atan2]) whose rounding error exceeds
    the half-ulp of the basic operations. *)

val scale : float -> t -> t

val offset : float -> t -> t

val to_string : t -> string
(** ["3.3"] for points, ["[1e-9, 2e-6]"] otherwise. *)

(** Generic worklist fixpoint over a finite node graph: node values start at
    [init], every edge propagates [f src_value] into its destination through
    [join], until nothing changes.  Termination requires the usual monotone
    transfer functions over a finite-height lattice (booleans for
    reachability; widen intervals yourself if you iterate over them). *)
module Fixpoint : sig
  type 'a edge = { src : int; dst : int; f : 'a -> 'a }

  val edge : ?f:('a -> 'a) -> int -> int -> 'a edge
  (** [f] defaults to the identity. *)

  val solve :
    size:int ->
    edges:'a edge list ->
    init:'a array ->
    join:('a -> 'a -> 'a) ->
    equal:('a -> 'a -> bool) ->
    'a array
  (** @raise Invalid_argument on a size mismatch or out-of-range edge. *)

  val reachable : size:int -> edges:bool edge list -> seeds:int list -> bool array
  (** Boolean propagation from [seeds] along [edges] (out-of-range seeds are
      ignored — callers pass ground as a non-node). *)
end
