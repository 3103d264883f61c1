(* The interval scalar of the device and stamp bodies
   (lib/spice/device_body.ml, lib/spice/stamp_body.ml): lib/analyse/dune
   splices it in front of them to make Device_interval, the corner proof's
   instance of the simulator's equations.  Every operation is an
   outward-rounded {!Interval} operation; the transcendental functions are
   interval images of the very float functions the float instance calls,
   so each interval operation encloses its float counterpart on any
   operands it contains (DESIGN.md §4a, "One text, two instances"). *)

module Mosfet = Yield_spice.Mosfet
module Device = Yield_spice.Device

type model = Mosfet.model

let temperature_voltage = Mosfet.temperature_voltage

module S = struct
  module I = Interval

  type t = I.t

  let c = I.point

  let one = I.point 1.

  let ( + ) = I.add

  let ( - ) = I.sub

  let ( * ) = I.mul

  let ( / ) = I.div

  let neg = I.neg

  (* the ulps bound each map's libm error (sqrt is correctly rounded) *)
  let sqrt = I.monotone_incr ~ulps:2 Stdlib.sqrt

  let sigmoid = I.monotone_incr ~ulps:8 Mosfet.sigmoid

  (* The float softplus is non-decreasing on each side of its switch to
     exp below -40, but not across it: just below -40 it is exp x > 0,
     from -40 up to where 1 + e^x first rounds above 1 it is 0.  A range
     straddling the switch is bounded by 0 and the larger of the two
     branches' suprema. *)
  let softplus (x : t) =
    let f = I.monotone_incr ~ulps:8 Mosfet.softplus in
    if x.I.lo < -40. && x.I.hi >= -40. then
      I.hull (I.point 0.) (I.hull (f (I.point x.I.hi)) (f (I.point (Float.pred (-40.)))))
    else f x

  (* Float.max is exact, so the endpoints need no widening *)
  let max_c k (x : t) = I.make (Float.max k x.I.lo) (Float.max k x.I.hi)

  (* the simulator reverses source and drain on vds < 0: an interval must
     decide it, so a caller splits a range that straddles zero first *)
  let negative (x : t) =
    if x.I.hi < 0. then true
    else if x.I.lo >= 0. then false
    else invalid_arg "Device_interval: vds range straddles zero"
end
