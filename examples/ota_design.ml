(* The paper's Section 4 walkthrough: symmetrical OTA model generation.

   Steps (Figure 3): netlist + objectives -> WBGA -> Pareto front ->
   Monte Carlo variation model -> table models -> yield-targeted design ->
   transistor-level verification.

   Run with:  dune exec examples/ota_design.exe                   (paper scale)
              YIELDLAB_FAST=1 dune exec examples/ota_design.exe   (reduced scale)

   The scale, like every run setting, resolves through Config.of_env (README
   "Settings"): a malformed YIELDLAB_* value is refused with its diagnostic
   and exit 2.  The verification Monte Carlo takes the paper's 500 samples
   at paper scale and 60 at the reduced one. *)

module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Netlist = Yield_spice.Netlist
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Report = Yield_core.Report
module Experiments = Yield_core.Experiments
module Perf_model = Yield_behavioural.Perf_model
module Var_model = Yield_behavioural.Var_model
module Macromodel = Yield_behavioural.Macromodel
module Yield_target = Yield_behavioural.Yield_target
module Montecarlo = Yield_process.Montecarlo

let () =
  let config =
    match Config.of_env () with
    | Ok config -> config
    | Error diags ->
        List.iter
          (fun d ->
            Printf.eprintf "ota_design: %s\n"
              (Yield_analyse.Diagnostic.to_text d))
          diags;
        exit 2
  in

  (* step 1: netlist generation.  The testbench builder is the "netlist
     generation" stage; print it once so the artefact is visible. *)
  let circuit, _ = Tb.build Ota.default_params in
  print_endline "--- testbench netlist (default sizing) ---";
  print_string (Netlist.to_string circuit);

  (* steps 2-5: optimisation, Pareto front, MC, table models *)
  Printf.printf "\n--- running the flow (%s) ---\n%!" (Config.scale_name config);
  let flow = Flow.run ~log:print_endline config in
  let glo, ghi = Perf_model.gain_range flow.Flow.perf_model in
  Printf.printf "performance model: %d points, gain %.2f..%.2f dB\n"
    (Perf_model.size flow.Flow.perf_model) glo ghi;
  Printf.printf "variation model: %d Monte Carlo'd points\n"
    (Array.length flow.Flow.var_points);

  (* persist the tables, as the paper's data files *)
  let files = Flow.save_tables flow ~dir:"." in
  List.iter (Printf.printf "wrote %s\n") files;

  (* emit the paper's §4.4 artefact: the Verilog-A module + its tables *)
  let va_files =
    Yield_behavioural.Verilog_a.save flow.Flow.macromodel ~dir:"."
  in
  List.iter (Printf.printf "wrote %s\n") va_files;

  (* step 6: a yield-targeted design query (Table 3) *)
  let spec = Experiments.spec_for_flow flow in
  Printf.printf "\n--- yield targeting: gain > %.0f dB, PM > %.0f deg ---\n"
    spec.Yield_target.min_gain_db spec.Yield_target.min_pm_deg;
  match Flow.design_for_spec flow spec with
  | Error e -> print_endline ("design query failed: " ^ e)
  | Ok plan ->
      let p = plan.Yield_target.proposal in
      Printf.printf "variation at spec: dGain %.2f %%, dPM %.2f %%\n"
        p.Macromodel.gain_delta_pct p.Macromodel.pm_delta_pct;
      Printf.printf "inflated target:   gain %.2f dB, PM %.2f deg\n"
        p.Macromodel.proposed_gain_db p.Macromodel.proposed_pm_deg;
      let design = p.Macromodel.design in
      Printf.printf "table design:      gain %.2f dB, PM %.2f deg\n"
        design.Perf_model.gain_db design.Perf_model.pm_deg;

      (* verification: nominal + Monte Carlo at transistor level (Table 4
         and the paper's 500-sample yield check) *)
      let params = Ota.params_of_array design.Perf_model.params in
      let samples =
        if Config.scale_name config = "paper-scale" then 500 else 60
      in
      (match Flow.verify_design flow ~samples ~spec params with
      | Error e -> print_endline ("verification failed: " ^ e)
      | Ok v ->
          Printf.printf "nominal transistor: gain %.2f dB, PM %.2f deg\n"
            v.Flow.nominal.Tb.gain_db v.Flow.nominal.Tb.phase_margin_deg;
          Printf.printf "MC yield (%d samples): %.1f %% (95%% CI %.1f-%.1f)\n"
            v.Flow.yield.Montecarlo.total
            (100. *. v.Flow.yield.Montecarlo.yield)
            (100. *. v.Flow.yield.Montecarlo.ci_low)
            (100. *. v.Flow.yield.Montecarlo.ci_high))
