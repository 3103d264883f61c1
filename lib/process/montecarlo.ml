module Rng = Yield_stats.Rng
module Summary = Yield_stats.Summary
module Metrics = Yield_obs.Metrics
module Span = Yield_obs.Span
module Fault = Yield_resilience.Fault
module Pool = Yield_exec.Pool

type 'a counted = 'a Pool.counted = {
  results : 'a array;
  attempted : int;
  failed : int;
}

let c_attempted = Metrics.counter "mc.samples.attempted"

let c_failed = Metrics.counter "mc.samples.failed"

(* [mc.sample] fault: the sample is lost (as if the simulation under it had
   failed).  [Pool.map_counted] reserves a block of hit indices per batch
   and decides per global sample index, so any [jobs] and any domain
   interleaving inject on exactly the same samples. *)
let fp_sample = Fault.point "mc.sample"

let run ?pool ~samples ~rng f =
  let pool = match pool with Some p -> p | None -> Pool.create ~jobs:1 () in
  (* batch ordinal as span key, taken by the (always sequential) caller
     before any work runs — the sampling identity is jobs-independent *)
  Span.with_ ~name:"mc.batch" ~key:(Span.next_key "mc.batch") (fun () ->
      (* every child stream is split in sample order before the fan-out,
         also an injected sample's, so neither [jobs] nor an injection
         shifts a sample's stream *)
      let children = Array.init samples (fun _ -> Rng.split rng) in
      let c = Pool.map_counted pool ~fault:fp_sample ~n:samples (fun i -> f children.(i)) in
      Metrics.add c_attempted c.attempted;
      Metrics.add c_failed c.failed;
      c)

type yield_estimate = {
  pass : int;
  total : int;
  yield : float;
  ci_low : float;
  ci_high : float;
}

let estimate_yield ~pass ~total =
  if total <= 0 then invalid_arg "Montecarlo.estimate_yield: empty sample";
  if pass < 0 || pass > total then
    invalid_arg "Montecarlo.estimate_yield: pass outside [0, total]";
  let n = float_of_int total and k = float_of_int pass in
  let p = k /. n in
  (* Wilson score interval, z = 1.96 *)
  let z = 1.96 in
  let z2 = z *. z in
  let denom = 1. +. (z2 /. n) in
  let centre = (p +. (z2 /. (2. *. n))) /. denom in
  let half =
    z /. denom *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n)))
  in
  {
    pass;
    total;
    yield = p;
    ci_low = Float.max 0. (centre -. half);
    ci_high = Float.min 1. (centre +. half);
  }

let yield_of ok results =
  let pass = Array.fold_left (fun acc r -> if ok r then acc + 1 else acc) 0 results in
  estimate_yield ~pass ~total:(Array.length results)

type yield_outcome =
  | Estimate of yield_estimate
  | No_valid_samples of { attempted : int; failed : int }

let yield_of_counted ok counted =
  if Array.length counted.results = 0 then
    No_valid_samples { attempted = counted.attempted; failed = counted.failed }
  else Estimate (yield_of ok counted.results)

let yield_outcome_to_string = function
  | Estimate e ->
      Printf.sprintf "%.1f %% (%d/%d, 95 %% CI %.1f–%.1f %%)" (100. *. e.yield)
        e.pass e.total (100. *. e.ci_low) (100. *. e.ci_high)
  | No_valid_samples { attempted; failed } ->
      Printf.sprintf "yield unknown (0 valid samples, %d/%d failed)" failed
        attempted

let spread_pct xs ~nominal =
  if Array.length xs = 0 then invalid_arg "Montecarlo.spread_pct: empty sample";
  if nominal = 0. then invalid_arg "Montecarlo.spread_pct: zero nominal";
  (* robust location/scale (median, IQR/1.349): a circuit sample can jump to
     a different operating branch and land far outside the main mode, and a
     plain 3-sigma envelope would be dominated by that single sample *)
  let centre = Summary.median xs in
  let iqr = Summary.quantile xs 0.75 -. Summary.quantile xs 0.25 in
  let sd = iqr /. 1.349 in
  let hi = centre +. (3. *. sd) and lo = centre -. (3. *. sd) in
  let dev = Float.max (Float.abs (hi -. nominal)) (Float.abs (nominal -. lo)) in
  100. *. dev /. Float.abs nominal
