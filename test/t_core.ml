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
    Config.fingerprint { Config.fast_scale with Config.solver = Yield_numeric.Linsys.Csr }
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
      Config.conditions = Yield_circuits.Miller_testbench.conditions;
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

(* ---------- the settings registry and the fingerprint ---------- *)

module Linsys = Yield_numeric.Linsys
module Tb = Yield_circuits.Testbench
module Tech = Yield_process.Tech
module Mosfet = Yield_spice.Mosfet
module Variation = Yield_process.Variation
module Operators = Yield_ga.Operators
module Checkpoint = Yield_resilience.Checkpoint
module Diagnostic = Yield_analyse.Diagnostic

let wide_prescreen =
  {
    Config.enabled = true;
    k_sigma = 0.5;
    min_gain_db = 60.;
    min_pm_deg = 0.;
    pass_budget_frac = 1.;
  }

(* [f] over a fresh directory, removed afterwards *)
let with_dir f =
  let dir = Filename.temp_file "yieldlab" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* the strings every existing checkpoint of the 16 kinds the CLI wrote
   carries: {--fast, paper} x {ota, miller} x {dense, csr} x {no
   prescreen, --prescreen --prescreen-k 0.5 --prescreen-min-gain 60} *)
let test_fingerprint_pins () =
  Alcotest.(check string) "one literal"
    "v1;seed=2008;pop=40;gens=25;mc=40;stride=4;control=3E;prescreen=k:0.5,g:60,pm:0,b:1;solver=csr;mc-start=nominal;amplifier=miller"
    (Config.fingerprint ~amplifier:"miller"
       {
         Config.fast_scale with
         Config.conditions = Yield_circuits.Miller_testbench.conditions;
         solver = Linsys.Csr;
         prescreen = wide_prescreen;
       });
  let flows =
    [
      ((module Flow.Ota_flow : Flow.S), "ota", Tb.default_conditions, "");
      ( (module Flow.Make (Yield_circuits.Miller) : Flow.S),
        "miller",
        Yield_circuits.Miller_testbench.conditions,
        ";amplifier=miller" );
    ]
  in
  List.iter
    (fun (scale, base) ->
      List.iter
        (fun ((module F : Flow.S), amplifier, conditions, amp) ->
          List.iter
            (fun (solver, solver_clause) ->
              List.iter
                (fun (prescreen, ps_clause) ->
                  let config =
                    { scale with Config.conditions; solver; prescreen }
                  in
                  let expected = base ^ ps_clause ^ solver_clause ^ amp in
                  Alcotest.(check string) expected expected
                    (Config.fingerprint ~amplifier config);
                  (* a checkpoint recorded under it resumes *)
                  with_dir (fun dir ->
                      ignore
                        (Checkpoint.check_fingerprint (Checkpoint.create ~dir)
                           expected);
                      Alcotest.(check (list string)) (expected ^ " resumes") []
                        (List.map
                           (fun d -> d.Diagnostic.code)
                           (F.check_config ~checkpoint_dir:dir ~resume:true
                              { config with Config.jobs = 1 }))))
                [
                  (Config.no_prescreen, "");
                  (wide_prescreen, ";prescreen=k:0.5,g:60,pm:0,b:1");
                ])
            [ (Linsys.Dense, ""); (Linsys.Csr, ";solver=csr;mc-start=nominal") ])
        flows)
    [
      (Config.fast_scale, "v1;seed=2008;pop=40;gens=25;mc=40;stride=4;control=3E");
      (Config.paper_scale, "v1;seed=2008;pop=100;gens=100;mc=200;stride=1;control=3E");
    ]

(* every leaf of Config.t the results depend on, perturbed one at a time,
   moves the fingerprint; the full record patterns (warning 9) make a new
   field fail to compile here until it is perturbed too *)
let test_fingerprint_leaves () =
  let base = { Config.paper_scale with Config.prescreen = wide_prescreen } in
  let {
    Config.conditions;
    variation;
    ga;
    mc_samples;
    front_stride;
    control;
    seed;
    jobs;
    solver = _;
    telemetry = _;
    prescreen;
  } =
    base
  in
  let { Tb.tech; vcm; load_cap; f_lo; f_hi; points_per_decade; min_unity_gain_hz } =
    conditions
  in
  let { Tech.name; vdd; nmos; pmos; l_min } = tech in
  let with_conditions c = { base with Config.conditions = c } in
  let with_tech t = with_conditions { conditions with Tb.tech = t } in
  let bump x = (x *. 1.01) +. 1e-12 in
  let model what (m : Mosfet.model) set =
    let {
      Mosfet.polarity;
      vth0;
      kp;
      gamma;
      phi;
      lambda0;
      n_slope;
      cox;
      cgso;
      cgdo;
      cj;
      cjsw;
      ext;
    } =
      m
    in
    List.map
      (fun (leaf, m) -> (what ^ "." ^ leaf, set m))
      [
        ( "polarity",
          {
            m with
            Mosfet.polarity = (if polarity = Mosfet.Nmos then Mosfet.Pmos else Mosfet.Nmos);
          } );
        ("vth0", { m with Mosfet.vth0 = bump vth0 });
        ("kp", { m with Mosfet.kp = bump kp });
        ("gamma", { m with Mosfet.gamma = bump gamma });
        ("phi", { m with Mosfet.phi = bump phi });
        ("lambda0", { m with Mosfet.lambda0 = bump lambda0 });
        ("n_slope", { m with Mosfet.n_slope = bump n_slope });
        ("cox", { m with Mosfet.cox = bump cox });
        ("cgso", { m with Mosfet.cgso = bump cgso });
        ("cgdo", { m with Mosfet.cgdo = bump cgdo });
        ("cj", { m with Mosfet.cj = bump cj });
        ("cjsw", { m with Mosfet.cjsw = bump cjsw });
        ("ext", { m with Mosfet.ext = bump ext });
      ]
  in
  let { Variation.global; mismatch } = variation in
  let {
    Variation.sigma_vth_n;
    sigma_vth_p;
    sigma_kp_rel_n;
    sigma_kp_rel_p;
    sigma_lambda_rel;
  } =
    global
  in
  let { Variation.avt_n; avt_p; abeta_n; abeta_p } = mismatch in
  let with_global g = { base with Config.variation = { variation with Variation.global = g } } in
  let with_mismatch m =
    { base with Config.variation = { variation with Variation.mismatch = m } }
  in
  let {
    Ga.population_size;
    generations;
    selection = _;
    crossover = _;
    crossover_rate;
    mutation = _;
    elite_count;
  } =
    ga
  in
  let with_ga g = { base with Config.ga = g } in
  let { Config.enabled = _; k_sigma; min_gain_db; min_pm_deg; pass_budget_frac } =
    prescreen
  in
  let with_prescreen p = { base with Config.prescreen = p } in
  let perturbed =
    [
      ("tech.name", with_tech { tech with Tech.name = name ^ "'" });
      ("tech.vdd", with_tech { tech with Tech.vdd = bump vdd });
      ("tech.l_min", with_tech { tech with Tech.l_min = bump l_min });
      ("vcm", with_conditions { conditions with Tb.vcm = bump vcm });
      ("load_cap", with_conditions { conditions with Tb.load_cap = bump load_cap });
      ("f_lo", with_conditions { conditions with Tb.f_lo = bump f_lo });
      ("f_hi", with_conditions { conditions with Tb.f_hi = bump f_hi });
      ( "points_per_decade",
        with_conditions
          { conditions with Tb.points_per_decade = points_per_decade + 1 } );
      ( "min_unity_gain_hz",
        with_conditions
          { conditions with Tb.min_unity_gain_hz = bump min_unity_gain_hz } );
      ("sigma_vth_n", with_global { global with Variation.sigma_vth_n = bump sigma_vth_n });
      ("sigma_vth_p", with_global { global with Variation.sigma_vth_p = bump sigma_vth_p });
      ( "sigma_kp_rel_n",
        with_global { global with Variation.sigma_kp_rel_n = bump sigma_kp_rel_n } );
      ( "sigma_kp_rel_p",
        with_global { global with Variation.sigma_kp_rel_p = bump sigma_kp_rel_p } );
      ( "sigma_lambda_rel",
        with_global { global with Variation.sigma_lambda_rel = bump sigma_lambda_rel } );
      ("avt_n", with_mismatch { mismatch with Variation.avt_n = bump avt_n });
      ("avt_p", with_mismatch { mismatch with Variation.avt_p = bump avt_p });
      ("abeta_n", with_mismatch { mismatch with Variation.abeta_n = bump abeta_n });
      ("abeta_p", with_mismatch { mismatch with Variation.abeta_p = bump abeta_p });
      ("population_size", with_ga { ga with Ga.population_size = population_size + 1 });
      ("generations", with_ga { ga with Ga.generations = generations + 1 });
      ("selection tournament", with_ga { ga with Ga.selection = Operators.Tournament 3 });
      ("selection roulette", with_ga { ga with Ga.selection = Operators.Roulette });
      ("crossover", with_ga { ga with Ga.crossover = Operators.Uniform 0.5 });
      ("crossover_rate", with_ga { ga with Ga.crossover_rate = bump crossover_rate });
      ( "mutation",
        with_ga
          { ga with Ga.mutation = Operators.Gaussian { sigma = 0.08; rate = 0.2 } } );
      ( "mutation kind",
        with_ga { ga with Ga.mutation = Operators.Uniform_reset { rate = 0.15 } } );
      ("elite_count", with_ga { ga with Ga.elite_count = elite_count + 1 });
      ("mc_samples", { base with Config.mc_samples = mc_samples + 1 });
      ("front_stride", { base with Config.front_stride = front_stride + 1 });
      ("control", { base with Config.control = control ^ "E" });
      ("seed", { base with Config.seed = seed + 1 });
      ("solver", { base with Config.solver = Linsys.Csr });
      ("prescreen.enabled", with_prescreen { prescreen with Config.enabled = false });
      ("prescreen.k_sigma", with_prescreen { prescreen with Config.k_sigma = bump k_sigma });
      ( "prescreen.k_sigma (below %g)",
        with_prescreen { prescreen with Config.k_sigma = Float.succ k_sigma } );
      ( "prescreen.min_gain_db",
        with_prescreen { prescreen with Config.min_gain_db = bump min_gain_db } );
      ( "prescreen.min_pm_deg",
        with_prescreen { prescreen with Config.min_pm_deg = min_pm_deg +. 1. } );
      ( "prescreen.pass_budget_frac",
        with_prescreen
          { prescreen with Config.pass_budget_frac = pass_budget_frac /. 2. } );
    ]
    @ model "nmos" nmos (fun m -> with_tech { tech with Tech.nmos = m })
    @ model "pmos" pmos (fun m -> with_tech { tech with Tech.pmos = m })
  in
  let fp = Config.fingerprint base in
  List.iter
    (fun (leaf, config) ->
      if Config.fingerprint config = fp then
        Alcotest.failf "perturbing %s leaves the fingerprint unchanged" leaf)
    perturbed;
  Alcotest.(check string) "jobs is not an input" fp
    (Config.fingerprint { base with Config.jobs = jobs + 3 });
  Alcotest.(check string) "telemetry is not an input" fp
    (Config.fingerprint
       {
         base with
         Config.telemetry =
           {
             Config.trace_stream = Some "t.jsonl";
             span_sample = Some "mc.batch=0";
             snapshot_every_s = Some 1.;
           };
       })

(* the README's settings table is the registry's rendering, byte for byte *)
let test_settings_table () =
  let rec find dir =
    let cand = Filename.concat dir "README.md" in
    if Sys.file_exists cand then cand
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.fail "README.md not found" else find parent
  in
  let lines =
    In_channel.with_open_text (find (Sys.getcwd ())) In_channel.input_all
    |> String.split_on_char '\n'
  in
  let rec table = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix:"| setting |" l ->
        let rec rows acc = function
          | r :: rest when String.starts_with ~prefix:"|" r -> rows (r :: acc) rest
          | _ -> List.rev acc
        in
        rows [ l ] rest
    | _ :: rest -> table rest
  in
  Alcotest.(check string) "README settings table" (Config.settings_table ())
    (String.concat "" (List.map (fun l -> l ^ "\n") (table lines)))

(* a setting's flag beats its variable, which beats the base config, for
   every command that takes it *)
let test_settings_precedence () =
  let vars = [ "YIELDLAB_FAST"; "YIELDLAB_PRESCREEN_K" ] in
  Fun.protect
    ~finally:(fun () -> List.iter (fun k -> Unix.putenv k "") vars)
    (fun () ->
      let resolve ?flags () =
        match Config.resolve ?flags { Config.paper_scale with Config.jobs = 1 } with
        | Ok c -> c
        | Error ds -> Alcotest.fail (Diagnostic.list_to_text ds)
      in
      Unix.putenv "YIELDLAB_FAST" "1";
      Alcotest.(check string) "YIELDLAB_FAST selects the fast scale"
        (Config.fingerprint Config.fast_scale)
        (Config.fingerprint (resolve ()));
      Alcotest.(check string) "YIELDLAB_FAST=0 is the paper scale"
        (Config.fingerprint Config.paper_scale)
        (Unix.putenv "YIELDLAB_FAST" "0";
         Config.fingerprint (resolve ()));
      Unix.putenv "YIELDLAB_FAST" "1";
      Unix.putenv "YIELDLAB_PRESCREEN_K" "0.5";
      let config =
        resolve ~flags:[ ("prescreen", "1"); ("prescreen_min_gain", "60") ] ()
      in
      Alcotest.(check bool) "--prescreen reads YIELDLAB_PRESCREEN_K" true
        (config.Config.prescreen = wide_prescreen);
      Alcotest.(check (float 0.)) "the flag beats the variable" 1.
        (resolve ~flags:[ ("prescreen_k", "1") ] ()).Config.prescreen.Config.k_sigma;
      (* at k = 3 the wide window proves no point fails; at k = 0.5, 2 *)
      match (Flow.run config).Flow.prescreen with
      | Some p -> Alcotest.(check int) "provably-fail points" 2 p.Flow.fail_skipped
      | None -> Alcotest.fail "prescreen did not run")

let suites =
  [
    ( "core.config",
      [
        Alcotest.test_case "scale names" `Quick test_config_env;
        Alcotest.test_case "solver fingerprint" `Quick test_solver_fingerprint;
        Alcotest.test_case "prescreen fingerprint" `Quick
          test_prescreen_fingerprint;
        Alcotest.test_case "fingerprint pins" `Quick test_fingerprint_pins;
        Alcotest.test_case "fingerprint leaves" `Quick test_fingerprint_leaves;
        Alcotest.test_case "README settings table" `Quick test_settings_table;
        Alcotest.test_case "flag and variable precedence" `Slow
          test_settings_precedence;
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
