module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Ga = Yield_ga.Ga
module Genome = Yield_ga.Genome
module Rng = Yield_stats.Rng
module Montecarlo = Yield_process.Montecarlo
module Yield_target = Yield_behavioural.Yield_target

type config = {
  conditions : Tb.conditions;
  variation : Yield_process.Variation.spec;
  spec : Yield_target.spec;
  population : int;
  generations : int;
  inner_mc : int;
  seed : int;
}

let default_config spec =
  {
    conditions = Tb.default_conditions;
    variation = Yield_process.Variation.default_spec;
    spec;
    population = 30;
    generations = 30;
    inner_mc = 20;
    seed = 404;
  }

type t = {
  best_params : Ota.params;
  best_yield : float;
  nominal : Tb.perf option;
  sims : int;
  wall_s : float;
}

let nop _ = ()

(* Fitness of a candidate: its estimated yield for the spec, tie-broken by
   the nominal worst-margin so the GA can climb before any sample passes. *)
let fitness config ~sims rng params =
  match Tb.evaluate ~conditions:config.conditions params with
  | None ->
      incr sims;
      (neg_infinity, 0.)
  | Some nominal ->
      incr sims;
      let session = Tb.session ~conditions:config.conditions params in
      let { Montecarlo.results; _ } =
        Montecarlo.run ~samples:config.inner_mc ~rng (fun sample_rng ->
            incr sims;
            Tb.evaluate_in_session session ~spec:config.variation
              ~rng:sample_rng)
      in
      let pass =
        Array.fold_left
          (fun acc r ->
            if
              Yield_target.meets config.spec ~gain_db:r.Tb.gain_db
                ~pm_deg:r.Tb.phase_margin_deg
            then acc + 1
            else acc)
          0 results
      in
      let yield_est =
        if Array.length results = 0 then 0.
        else float_of_int pass /. float_of_int (Array.length results)
      in
      let margin =
        Float.min
          (nominal.Tb.gain_db -. config.spec.Yield_target.min_gain_db)
          (nominal.Tb.phase_margin_deg -. config.spec.Yield_target.min_pm_deg)
      in
      (* margin is squashed into (0, 1e-3) so yield dominates; the /5
         softening keeps a usable gradient far from the spec *)
      let tie = 1e-3 /. (1. +. exp (-.margin /. 5.)) in
      (yield_est +. tie, yield_est)

let run ?(log = nop) config =
  let t0 = Unix.gettimeofday () in
  let sims = ref 0 in
  let rng = Rng.create config.seed in
  let encoding = Genome.encoding Ota.param_ranges ~n_weights:0 in
  let score population =
    Array.map
      (fun genome ->
        let params = Ota.params_of_array (Genome.params encoding genome) in
        let fitness_value, yield_est = fitness config ~sims rng params in
        ((params, yield_est), fitness_value))
      population
  in
  let ga_config =
    {
      Ga.default_config with
      Ga.population_size = config.population;
      generations = config.generations;
    }
  in
  log
    (Printf.sprintf "baseline: MC-in-the-loop GA %d x %d x %d samples"
       config.population config.generations config.inner_mc);
  let result = Ga.run ga_config encoding (Rng.split rng) ~score in
  let best_params, best_yield = result.Ga.best.Ga.payload in
  if result.Ga.best.Ga.fitness = neg_infinity then
    failwith "Baseline.run: no candidate converged";
  {
    best_params;
    best_yield;
    nominal = Tb.evaluate ~conditions:config.conditions best_params;
    sims = !sims;
    wall_s = Unix.gettimeofday () -. t0;
  }

let sims_per_extra_spec config =
  config.population * config.generations * (1 + config.inner_mc)
