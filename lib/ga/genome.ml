module Rng = Yield_stats.Rng

type scale = Linear | Log

type range = { name : string; lo : float; hi : float; scale : scale }

let range name ~lo ~hi =
  if not (lo < hi) then invalid_arg ("Genome.range: empty range for " ^ name);
  { name; lo; hi; scale = Linear }

let log_range name ~lo ~hi =
  if not (0. < lo && lo < hi) then
    invalid_arg ("Genome.log_range: need 0 < lo < hi for " ^ name);
  { name; lo; hi; scale = Log }

type encoding = { param_ranges : range array; n_weights : int }

let encoding param_ranges ~n_weights =
  if Array.length param_ranges = 0 then
    invalid_arg "Genome.encoding: no parameters";
  if n_weights < 0 then invalid_arg "Genome.encoding: negative weight count";
  { param_ranges; n_weights }

let length e = Array.length e.param_ranges + e.n_weights

type t = float array

let random e rng = Array.init (length e) (fun _ -> Rng.float rng)

let clamp g =
  for i = 0 to Array.length g - 1 do
    g.(i) <- Float.max 0. (Float.min 1. g.(i))
  done

let decode r gene =
  match r.scale with
  | Linear -> r.lo +. (gene *. (r.hi -. r.lo))
  | Log -> exp (log r.lo +. (gene *. (log r.hi -. log r.lo)))

let encode r value =
  let unit =
    match r.scale with
    | Linear -> (value -. r.lo) /. (r.hi -. r.lo)
    | Log -> (log value -. log r.lo) /. (log r.hi -. log r.lo)
  in
  Float.max 0. (Float.min 1. unit)

let params e g = Array.mapi (fun i r -> decode r g.(i)) e.param_ranges

let weights e g =
  let np = Array.length e.param_ranges in
  let raw = Array.sub g np e.n_weights in
  let total = Array.fold_left ( +. ) 0. raw in
  if total <= 0. then Array.make e.n_weights (1. /. float_of_int e.n_weights)
  else Array.map (fun w -> w /. total) raw

let of_params e ~params ~weights =
  let np = Array.length e.param_ranges in
  if Array.length params <> np then
    invalid_arg "Genome.of_params: parameter count mismatch";
  if Array.length weights <> e.n_weights then
    invalid_arg "Genome.of_params: weight count mismatch";
  let g = Array.make (length e) 0. in
  Array.iteri (fun i r -> g.(i) <- encode r params.(i)) e.param_ranges;
  let wmax = Array.fold_left Float.max 0. weights in
  Array.iteri
    (fun i w -> g.(np + i) <- if wmax > 0. then Float.max 0. (w /. wmax) else 0.5)
    weights;
  g
