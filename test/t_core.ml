(* Tests for the yield_core library: configuration, the end-to-end flow at
   smoke scale, the baseline, report rendering and experiment plumbing. *)

module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Baseline = Yield_core.Baseline
module Report = Yield_core.Report
module Experiments = Yield_core.Experiments
module Ga = Yield_ga.Ga
module Ota = Yield_circuits.Ota
module Perf_model = Yield_behavioural.Perf_model
module Yield_target = Yield_behavioural.Yield_target
module Montecarlo = Yield_process.Montecarlo

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

(* a tiny configuration so the whole flow runs in seconds *)
let smoke_config =
  {
    Config.fast_scale with
    Config.ga =
      { Ga.default_config with Ga.population_size = 24; generations = 12 };
    mc_samples = 12;
    front_stride = 2;
    seed = 31;
  }

let flow = lazy (Flow.run smoke_config)

let test_config_env () =
  Alcotest.(check string) "paper scale name" "paper-scale"
    (Config.scale_name Config.paper_scale);
  Alcotest.(check string) "fast scale name" "reduced-scale"
    (Config.scale_name Config.fast_scale)

let test_flow_counts () =
  let f = Lazy.force flow in
  Alcotest.(check int) "optimisation sims = pop x gens" (24 * 12)
    f.Flow.counts.Flow.optimisation_sims;
  Alcotest.(check bool) "front nonempty" true
    (Array.length f.Flow.front_points >= 2);
  Alcotest.(check bool) "mc sims accounted" true
    (f.Flow.counts.Flow.mc_sims > 0);
  Alcotest.(check int) "total is the sum"
    (f.Flow.counts.Flow.optimisation_sims + f.Flow.counts.Flow.front_sims
   + f.Flow.counts.Flow.mc_sims)
    (Flow.total_sims f.Flow.counts)

let test_flow_front_monotone () =
  (* the extracted front must trade gain against phase margin *)
  let f = Lazy.force flow in
  let pts = Perf_model.points f.Flow.perf_model in
  let ok = ref true in
  for i = 1 to Array.length pts - 1 do
    if pts.(i).Perf_model.gain_db < pts.(i - 1).Perf_model.gain_db then
      ok := false;
    if pts.(i).Perf_model.pm_deg > pts.(i - 1).Perf_model.pm_deg +. 1e-9 then
      ok := false
  done;
  Alcotest.(check bool) "gain ascending, pm descending" true !ok

let test_flow_var_points_positive () =
  let f = Lazy.force flow in
  Array.iter
    (fun (p : Yield_behavioural.Var_model.point) ->
      if p.Yield_behavioural.Var_model.dgain_pct < 0. then
        Alcotest.fail "negative dgain";
      if p.Yield_behavioural.Var_model.dpm_pct < 0. then
        Alcotest.fail "negative dpm")
    f.Flow.var_points

let test_flow_spec_and_plan () =
  let f = Lazy.force flow in
  let spec = Experiments.spec_for_flow f in
  match Flow.design_for_spec f spec with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      (* within the (d/100)^2 second-order term of the inflation formula *)
      Alcotest.(check bool) "worst case clears gain spec" true
        (plan.Yield_target.worst_case_gain_db
        >= spec.Yield_target.min_gain_db *. (1. -. 1e-3))

let test_flow_verify_design () =
  let f = Lazy.force flow in
  let spec = Experiments.spec_for_flow f in
  match Flow.design_for_spec f spec with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let params =
        Ota.params_of_array
          plan.Yield_target.proposal.Yield_behavioural.Macromodel.design
            .Perf_model.params
      in
      (match Flow.verify_design f ~samples:12 ~spec params with
      | Error e -> Alcotest.fail e
      | Ok v ->
          Alcotest.(check bool) "samples collected" true
            (Array.length v.Flow.gains > 6);
          (* at this smoke scale the model is coarse; the paper-scale run
             (bench/main.exe) checks the full-yield claim *)
          Alcotest.(check bool) "yield majority" true
            (v.Flow.yield.Montecarlo.yield >= 0.5))

let test_flow_save_load_tables () =
  let f = Lazy.force flow in
  let dir = Filename.temp_file "yieldlab" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let written = Flow.save_tables f ~dir in
      Alcotest.(check int) "two files" 2 (List.length written);
      let perf, _var = Flow.load_models ~dir ~control:"3E" in
      Alcotest.(check int) "perf model reloads" (Perf_model.size f.Flow.perf_model)
        (Perf_model.size perf))

let test_flow_lint_models () =
  (* the saved tables must pass their own preflight, and corrupting the
     perf table's axis ordering must surface as an error-severity finding —
     the same failure load_models would hit *)
  let f = Lazy.force flow in
  let dir = Filename.temp_file "yieldlab" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      ignore (Flow.save_tables f ~dir);
      let diags = Flow.lint_models ~dir ~control:"3E" () in
      Alcotest.(check int) "saved tables preflight clean" 0
        (Yield_analyse.Diagnostic.exit_code diags);
      let perf = Filename.concat dir "perf_model.tbl" in
      let lines =
        In_channel.with_open_text perf In_channel.input_lines
        |> List.map (fun l ->
               if String.length l > 0 && l.[0] <> '#' then "0.0 " ^ l else l)
      in
      Out_channel.with_open_text perf (fun oc ->
          List.iter (fun l -> Printf.fprintf oc "%s\n" l) lines);
      let diags = Flow.lint_models ~dir ~control:"3E" () in
      Alcotest.(check int) "corrupted perf table is an error" 2
        (Yield_analyse.Diagnostic.exit_code diags))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_prescreen_fingerprint () =
  (* a disabled prescreen must not disturb existing fingerprints (old
     checkpoints stay resumable); an enabled one must join the identity *)
  let base = Config.fingerprint smoke_config in
  Alcotest.(check bool) "disabled prescreen absent from fingerprint" false
    (contains ~needle:"prescreen" base);
  let ps =
    {
      Config.enabled = true;
      k_sigma = 0.5;
      min_gain_db = 60.;
      min_pm_deg = 0.;
      pass_budget_frac = 1.;
    }
  in
  let with_ps =
    Config.fingerprint { smoke_config with Config.prescreen = ps }
  in
  Alcotest.(check bool) "enabled prescreen joins the fingerprint" true
    (contains ~needle:"prescreen=k:0.5,g:60,pm:0,b:1" with_ps);
  Alcotest.(check bool) "base is a prefix" true
    (String.length with_ps >= String.length base
    && String.sub with_ps 0 (String.length base) = base)

(* the dense fingerprint is an on-disk identity every existing dense
   checkpoint was recorded under; the csr one names the warm Monte Carlo
   start, so cold-started csr checkpoints are refused *)
let test_solver_fingerprint () =
  let dense = Config.fingerprint Config.fast_scale in
  Alcotest.(check string) "dense literal"
    "v1;seed=2008;pop=40;gens=25;mc=40;stride=4;control=3E" dense;
  let csr =
    Config.fingerprint { Config.fast_scale with Config.solver = "csr" }
  in
  Alcotest.(check bool) "csr differs from the cold-start tag" true
    (csr <> "v1;seed=2008;pop=40;gens=25;mc=40;stride=4;control=3E;solver=csr");
  Alcotest.(check bool) "csr extends the dense identity" true
    (String.length csr > String.length dense
    && String.sub csr 0 (String.length dense) = dense)

let test_flow_prescreen () =
  (* wide-spec prescreen: provably-fail points skip their MC batch, so the
     run attempts strictly fewer samples than the unscreened reference and
     drops exactly the skipped points from the variation model *)
  let plain = Lazy.force flow in
  Alcotest.(check bool) "prescreen accounting absent when disabled" true
    (plain.Flow.prescreen = None);
  let ps =
    {
      Config.enabled = true;
      k_sigma = 0.5;
      min_gain_db = 55.;
      (* the smoke front's half-sigma gain enclosures top out between ~53.6
         and ~59.8 dB: the low-gain end provably misses 55 dB even at the
         best corner, the high-gain end does not *)
      min_pm_deg = 0.;
      pass_budget_frac = 1.;
    }
  in
  let f = Flow.run { smoke_config with Config.prescreen = ps } in
  match f.Flow.prescreen with
  | None -> Alcotest.fail "prescreen accounting missing from an enabled run"
  | Some pc ->
      Alcotest.(check bool) "some points analysed" true (pc.Flow.analysed > 0);
      Alcotest.(check int) "verdicts partition the analysed points"
        pc.Flow.analysed
        (pc.Flow.fail_skipped + pc.Flow.provably_passed + pc.Flow.undecided);
      Alcotest.(check bool) "low-gain points are provably out" true
        (pc.Flow.fail_skipped > 0);
      Alcotest.(check bool) "high-gain points are not" true
        (pc.Flow.fail_skipped < pc.Flow.analysed);
      Alcotest.(check bool) "skipped points attempt no MC" true
        (f.Flow.counts.Flow.mc_sims < plain.Flow.counts.Flow.mc_sims);
      Alcotest.(check int) "skipped points leave the variation model"
        (Array.length plain.Flow.var_points - pc.Flow.fail_skipped)
        (Array.length f.Flow.var_points);
      (* the perf model is untouched: prescreen gates only the MC stage *)
      let pa = Perf_model.points plain.Flow.perf_model in
      let pb = Perf_model.points f.Flow.perf_model in
      Alcotest.(check int) "same front size" (Array.length pa)
        (Array.length pb)

let test_flow_deterministic () =
  let a = Flow.run smoke_config and b = Flow.run smoke_config in
  let pa = Perf_model.points a.Flow.perf_model in
  let pb = Perf_model.points b.Flow.perf_model in
  Alcotest.(check int) "same front size" (Array.length pa) (Array.length pb);
  Array.iteri
    (fun i (p : Perf_model.point) ->
      check_float "same gains" p.Perf_model.gain_db pb.(i).Perf_model.gain_db)
    pa

let test_flow_functor_miller () =
  (* the generalised pipeline on the Miller OTA at smoke scale *)
  let module Miller_flow = Flow.Make (Yield_circuits.Miller) in
  let config =
    {
      smoke_config with
      Config.conditions =
        {
          Yield_circuits.Testbench.default_conditions with
          Yield_circuits.Testbench.min_unity_gain_hz = 5e6;
        };
      seed = 57;
    }
  in
  let f = Miller_flow.run config in
  let glo, ghi = Perf_model.gain_range f.Flow.perf_model in
  (* two-stage gains *)
  Alcotest.(check bool) "two-stage range" true (ghi > 75.);
  Alcotest.(check bool) "front spans" true (ghi -. glo > 3.);
  let spec = Experiments.spec_for_flow f in
  match Flow.design_for_spec f spec with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let params =
        Yield_circuits.Miller.params_of_array
          plan.Yield_target.proposal.Yield_behavioural.Macromodel.design
            .Perf_model.params
      in
      (match Miller_flow.verify_design f ~samples:10 ~spec params with
      | Error e -> Alcotest.fail e
      | Ok v ->
          Alcotest.(check bool) "verification samples" true
            (Array.length v.Flow.gains > 5))

let test_baseline_runs () =
  let f = Lazy.force flow in
  let spec = Experiments.spec_for_flow f in
  let config =
    {
      (Baseline.default_config spec) with
      Baseline.population = 8;
      generations = 4;
      inner_mc = 3;
    }
  in
  let b = Baseline.run config in
  Alcotest.(check bool) "sims counted" true (b.Baseline.sims > 8 * 4);
  Alcotest.(check bool) "params in range" true
    (b.Baseline.best_params.Ota.w1 >= Ota.w_min
    && b.Baseline.best_params.Ota.w1 <= Ota.w_max);
  Alcotest.(check int) "per-extra-spec budget" (8 * 4 * 4)
    (Baseline.sims_per_extra_spec config)

let test_report_table () =
  let s = Report.table ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  (* all rendered rows share the same width *)
  (match lines with
  | h :: rule :: _ -> Alcotest.(check int) "rule width" (String.length h) (String.length rule)
  | _ -> Alcotest.fail "missing lines")

let test_report_si () =
  Alcotest.(check string) "pico" "3.3p" (Report.si 3.3e-12);
  Alcotest.(check string) "mega" "10M" (Report.si 10e6);
  Alcotest.(check string) "unit" "42" (Report.si 42.);
  Alcotest.(check string) "zero" "0" (Report.si 0.)

let test_report_float_cell () =
  Alcotest.(check string) "two decimals" "3.14" (Report.float_cell 3.14159);
  Alcotest.(check string) "nan" "n/a" (Report.float_cell nan)

let test_experiments_registry () =
  Alcotest.(check int) "eight experiments" 8 (List.length Experiments.all);
  List.iter
    (fun id ->
      if not (List.mem_assoc id Experiments.all) then
        Alcotest.failf "missing experiment %s" id)
    [ "fig7"; "table2"; "table3"; "table4"; "table5"; "fig8"; "fig10"; "fig11" ]

let test_experiments_render () =
  (* each experiment renders without raising on a smoke-scale context *)
  let ctx =
    {
      Experiments.config = smoke_config;
      flow = Lazy.force flow;
      spec = Experiments.spec_for_flow (Lazy.force flow);
    }
  in
  List.iter
    (fun (name, f) ->
      if name <> "table5" then begin
        let s = f ctx in
        if String.length s < 40 then Alcotest.failf "%s output too short" name
      end)
    Experiments.all;
  (* table5 without the expensive baseline *)
  let s = Experiments.table5 ~run_baseline:false ctx in
  Alcotest.(check bool) "table5 renders" true (String.length s > 40)

let suites =
  [
    ( "core.config",
      [
        Alcotest.test_case "scale names" `Quick test_config_env;
        Alcotest.test_case "solver fingerprint" `Quick test_solver_fingerprint;
        Alcotest.test_case "prescreen fingerprint" `Quick
          test_prescreen_fingerprint;
      ] );
    ( "core.flow",
      [
        Alcotest.test_case "counts" `Slow test_flow_counts;
        Alcotest.test_case "front monotone" `Slow test_flow_front_monotone;
        Alcotest.test_case "variation positive" `Slow test_flow_var_points_positive;
        Alcotest.test_case "spec and plan" `Slow test_flow_spec_and_plan;
        Alcotest.test_case "verify design" `Slow test_flow_verify_design;
        Alcotest.test_case "save/load tables" `Slow test_flow_save_load_tables;
        Alcotest.test_case "lint saved tables" `Slow test_flow_lint_models;
        Alcotest.test_case "deterministic" `Slow test_flow_deterministic;
        Alcotest.test_case "functor on miller" `Slow test_flow_functor_miller;
        Alcotest.test_case "prescreen" `Slow test_flow_prescreen;
      ] );
    ( "core.baseline",
      [ Alcotest.test_case "runs and counts" `Slow test_baseline_runs ] );
    ( "core.report",
      [
        Alcotest.test_case "table" `Quick test_report_table;
        Alcotest.test_case "si" `Quick test_report_si;
        Alcotest.test_case "float cell" `Quick test_report_float_cell;
      ] );
    ( "core.experiments",
      [
        Alcotest.test_case "registry" `Quick test_experiments_registry;
        Alcotest.test_case "render" `Slow test_experiments_render;
      ] );
  ]
