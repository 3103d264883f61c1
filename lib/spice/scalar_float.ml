(* The float scalar of the device and stamp bodies (device_body.ml,
   stamp_body.ml): the build splices it in front of them, in Mosfet and in
   Mna, so every operation below is inlined into the body's code and its
   floats stay unboxed.  The interval instance's scalar is
   lib/analyse/scalar_interval.ml; DESIGN.md §4a ("One text, two
   instances") explains the scheme.  Each unit uses a subset. *)
module S = struct
  [@@@warning "-32"]

  type t = float

  let[@inline] c (x : float) = x

  let one = 1.

  let[@inline] ( + ) (a : float) b = a +. b

  let[@inline] ( - ) (a : float) b = a -. b

  let[@inline] ( * ) (a : float) b = a *. b

  let[@inline] ( / ) (a : float) b = a /. b

  let[@inline] neg (a : float) = -.a

  let[@inline] sqrt (a : float) = Stdlib.sqrt a

  (* overflow-safe softplus x = ln (1 + e^x) and its derivative *)
  let[@inline] softplus x =
    if x > 40. then x else if x < -40. then exp x else log (1. +. exp x)

  let[@inline] sigmoid x =
    if x > 40. then 1. else if x < -40. then exp x else 1. /. (1. +. exp (-.x))

  let[@inline] max_c k (x : float) = Float.max k x

  let[@inline] negative (x : float) = x < 0.
end
