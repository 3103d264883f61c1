(* max error 1.2e-7; adequate for yield estimates quoted to a percent *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = Float.abs x in
  let t = 1. /. (1. +. (0.3275911 *. x)) in
  let poly =
    ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
     -. 0.284496736)
     *. t)
    +. 0.254829592
  in
  sign *. (1. -. (poly *. t *. exp (-.x *. x)))

let normal_cdf ~mean ~sigma x =
  0.5 *. (1. +. erf ((x -. mean) /. (sigma *. sqrt 2.)))
