(* The paper's Section 5 walkthrough: designing the 2nd-order anti-aliasing
   filter from the OTA behavioural model, then verifying the result — and
   its yield — at transistor level.

   Run with:  dune exec examples/filter_design.exe *)

module Ota = Yield_circuits.Ota
module Filter = Yield_circuits.Filter
module Measure = Yield_spice.Measure
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Report = Yield_core.Report
module Experiments = Yield_core.Experiments
module Perf_model = Yield_behavioural.Perf_model
module Macromodel = Yield_behavioural.Macromodel
module Yield_target = Yield_behavioural.Yield_target
module Variation = Yield_process.Variation
module Montecarlo = Yield_process.Montecarlo
module Rng = Yield_stats.Rng

let () =
  (* an OTA behavioural model from a reduced-scale flow run *)
  print_endline "building the OTA behavioural model...";
  let flow = Flow.run Config.fast_scale in
  let spec_ota = Experiments.spec_for_flow flow in
  let design =
    match Flow.design_for_spec flow spec_ota with
    | Ok plan -> plan.Yield_target.proposal.Macromodel.design
    | Error e -> failwith e
  in
  let amp = Macromodel.amp_of_design design in
  Printf.printf "OTA from model: gain %.2f dB, rout %s Ohm\n"
    amp.Filter.gain_db (Report.si amp.Filter.rout);

  (* the anti-aliasing mask (Figure 10) with a design guard band *)
  let spec = Filter.default_spec in
  let design_spec =
    { spec with Filter.ripple_db = spec.Filter.ripple_db -. 0.2;
                atten_db = spec.Filter.atten_db +. 3. }
  in
  Printf.printf "mask: passband to %sHz at +-%.1f dB, >= %.0f dB beyond %sHz\n"
    (Report.si spec.Filter.f_pass) spec.Filter.ripple_db spec.Filter.atten_db
    (Report.si spec.Filter.f_stop);

  (* the paper's Section 5 MOO: 30 individuals x 40 generations over the
     capacitors *)
  let result = Filter.optimise amp design_spec (Rng.create 11) in
  let caps = result.Filter.best in
  Printf.printf "capacitors: C1 = %sF, C2 = %sF, C3 = %sF\n"
    (Report.si caps.Filter.c1) (Report.si caps.Filter.c2)
    (Report.si caps.Filter.c3);

  (* verification at transistor level *)
  let params = Ota.params_of_array design.Perf_model.params in
  (match Filter.response_transistor params caps with
  | None -> print_endline "transistor filter failed to bias"
  | Some bode ->
      let c = Filter.check spec bode in
      Printf.printf
        "transistor filter: passband margin %.2f dB, stopband margin %.2f dB \
         (meets spec: %b)\n"
        c.Filter.passband_margin_db c.Filter.stopband_margin_db
        c.Filter.meets_spec;
      (* print the response every half decade *)
      let mags = Measure.magnitudes_db bode in
      Array.iteri
        (fun i f ->
          if i mod 10 = 0 then
            Printf.printf "  %8sHz  %7.2f dB\n" (Report.si f) mags.(i))
        bode.Yield_spice.Ac.freqs);

  (* Monte Carlo yield of the closed filter *)
  let circuit, out = Filter.build_transistor params caps in
  (* every perturbed sample keeps the topology: one solver session *)
  let sys = Yield_spice.Mna.sys circuit in
  let rng = Rng.create 99 in
  let { Montecarlo.results; _ } =
    Montecarlo.run ~samples:100 ~rng (fun r ->
        let perturbed = Variation.perturb_circuit Variation.default_spec r circuit in
        match Filter.response_of_circuit ~sys perturbed ~out with
        | None -> None
        | Some b -> Some (Filter.check spec b))
  in
  let est = Montecarlo.yield_of (fun c -> c.Filter.meets_spec) results in
  Printf.printf "filter Monte Carlo yield (%d samples): %.1f %%\n"
    est.Montecarlo.total (100. *. est.Montecarlo.yield)
