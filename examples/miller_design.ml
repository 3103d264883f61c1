(* Generalisation example: the paper's flow applied to a different topology —
   a two-stage Miller-compensated OTA — through the generic pipeline
   (Flow.Make works for any Amplifier.S).

   Run with:  dune exec examples/miller_design.exe *)

module Miller = Yield_circuits.Miller
module Gtb = Yield_circuits.Testbench
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Experiments = Yield_core.Experiments
module Ga = Yield_ga.Ga
module Perf_model = Yield_behavioural.Perf_model
module Macromodel = Yield_behavioural.Macromodel
module Yield_target = Yield_behavioural.Yield_target
module Montecarlo = Yield_process.Montecarlo

module Miller_flow = Flow.Make (Miller)

let () =
  let config =
    {
      Config.fast_scale with
      Config.conditions = Yield_circuits.Miller_testbench.conditions;
      ga = { Ga.default_config with Ga.population_size = 40; generations = 25 };
      mc_samples = 20;
      front_stride = 2;
      seed = 17;
    }
  in
  print_endline "running the flow on the two-stage Miller OTA...";
  let flow = Miller_flow.run ~log:(fun s -> print_endline ("  " ^ s)) config in
  let glo, ghi = Perf_model.gain_range flow.Flow.perf_model in
  Printf.printf "model: gain range %.1f..%.1f dB, %d points\n" glo ghi
    (Perf_model.size flow.Flow.perf_model);

  (* a yield-targeted design query against the Miller model *)
  let spec = Experiments.spec_for_flow flow in
  Printf.printf "specification: gain > %.0f dB, PM > %.0f deg\n"
    spec.Yield_target.min_gain_db spec.Yield_target.min_pm_deg;
  match Flow.design_for_spec flow spec with
  | Error e -> print_endline ("design query failed: " ^ e)
  | Ok plan ->
      let design = plan.Yield_target.proposal.Macromodel.design in
      Printf.printf "model design: gain %.2f dB, PM %.2f deg\n"
        design.Perf_model.gain_db design.Perf_model.pm_deg;
      let params = Miller.params_of_array design.Perf_model.params in
      (* transistor-level Monte Carlo verification, exactly as for the
         symmetrical OTA *)
      match Miller_flow.verify_design flow ~samples:80 ~spec params with
      | Error e -> print_endline ("verification failed: " ^ e)
      | Ok v ->
          Printf.printf "nominal transistor: gain %.2f dB, PM %.2f deg\n"
            v.Flow.nominal.Gtb.gain_db v.Flow.nominal.Gtb.phase_margin_deg;
          Printf.printf "MC yield (%d samples): %.1f %%\n"
            v.Flow.yield.Montecarlo.total
            (100. *. v.Flow.yield.Montecarlo.yield)
