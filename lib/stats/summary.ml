type t = {
  count : int;
  mean : float;
  m2 : float;
  min_v : float;
  max_v : float;
}

let empty = { count = 0; mean = 0.; m2 = 0.; min_v = infinity; max_v = neg_infinity }

let add t x =
  let count = t.count + 1 in
  let delta = x -. t.mean in
  let mean = t.mean +. (delta /. float_of_int count) in
  let m2 = t.m2 +. (delta *. (x -. mean)) in
  { count; mean; m2; min_v = Float.min t.min_v x; max_v = Float.max t.max_v x }

let of_array xs = Array.fold_left add empty xs

let count t = t.count

let mean t = if t.count = 0 then nan else t.mean

let variance t = if t.count < 2 then nan else t.m2 /. float_of_int (t.count - 1)

let stddev t = sqrt (variance t)

let min_value t = if t.count = 0 then nan else t.min_v

let max_value t = if t.count = 0 then nan else t.max_v

let quantile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.quantile: empty sample";
  if p < 0. || p > 1. then invalid_arg "Summary.quantile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let pos = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = quantile xs 0.5

type histogram = { edges : float array; counts : int array }

let histogram ?(bins = 20) xs =
  if Array.length xs = 0 then invalid_arg "Summary.histogram: empty sample";
  if bins <= 0 then invalid_arg "Summary.histogram: bins must be positive";
  let lo = Array.fold_left Float.min infinity xs in
  let hi = Array.fold_left Float.max neg_infinity xs in
  (* widen degenerate ranges so every sample lands in a bin *)
  let lo, hi = if lo = hi then (lo -. 0.5, hi +. 0.5) else (lo, hi) in
  let width = (hi -. lo) /. float_of_int bins in
  let edges = Array.init (bins + 1) (fun i -> lo +. (float_of_int i *. width)) in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let i = int_of_float ((x -. lo) /. width) in
      let i = Stdlib.max 0 (Stdlib.min (bins - 1) i) in
      counts.(i) <- counts.(i) + 1)
    xs;
  { edges; counts }
