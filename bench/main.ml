(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4-§5), then runs the ablation studies that exercise the
   design choices DESIGN.md calls out.  Per-primitive timings live in
   perfbench's per-layer metrics (EXPERIMENTS.md, Table 5).

   Default scale is the paper's (10,000 optimisation samples, 200 MC samples
   per Pareto point, 500-sample verifications); set YIELDLAB_FAST=1 for a
   reduced smoke run. *)

module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Experiments = Yield_core.Experiments
module Report = Yield_core.Report
module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Perf_model = Yield_behavioural.Perf_model
module Var_model = Yield_behavioural.Var_model
module Macromodel = Yield_behavioural.Macromodel
module Yield_target = Yield_behavioural.Yield_target
module Variation = Yield_process.Variation
module Wbga = Yield_ga.Wbga
module Ga = Yield_ga.Ga
module Rng = Yield_stats.Rng
module Json = Yield_obs.Json
module Metrics = Yield_obs.Metrics
module Atomic_io = Yield_resilience.Atomic_io

(* the size of a section's own sampling: [paper] at the paper's scale,
   [fast] under YIELDLAB_FAST *)
let at_scale ctx ~paper ~fast =
  if Config.scale_name ctx.Experiments.config = "paper-scale" then paper
  else fast

(* ------------------------------------------------------------------ *)
(* Machine-readable record of the flow run: stage timings, simulation
   counts and the instrument snapshot, so the perf trajectory is diffable
   across PRs (the JSON schema is documented in README.md §Telemetry). *)

(* Corner-proof prescreen A/B: re-run the same flow with the corner-interval
   prescreen armed against a wide spec window (gain >= 60 dB, which parts of
   the front provably cannot reach over the 0.5-sigma box), so the BENCH
   document records the Monte Carlo cut next to the no-prescreen reference.
   The prescreen run's totals must come in strictly below the reference —
   the perf gate's sim_counts are the reference run's, which is why this
   runs as its own section instead of replacing the main flow. *)
let prescreen_ab ctx =
  let config = ctx.Experiments.config in
  let ps =
    {
      Config.enabled = true;
      k_sigma = 0.5;
      min_gain_db = 60.;
      min_pm_deg = 0.;
      pass_budget_frac = 1.;
    }
  in
  print_string
    (Report.section "Monte Carlo prescreen: corner proofs before sampling");
  let flow = Flow.run { config with Config.prescreen = ps } in
  let base = ctx.Experiments.flow in
  let base_total = Flow.total_sims base.Flow.counts in
  let ps_total = Flow.total_sims flow.Flow.counts in
  let pc =
    match flow.Flow.prescreen with
    | Some p -> p
    | None -> assert false (* prescreen was enabled *)
  in
  let perf_tables_identical =
    Perf_model.points base.Flow.perf_model
    = Perf_model.points flow.Flow.perf_model
  in
  Printf.printf
    "  window gain >= %g dB at k = %g\n\
    \  analysed %d front points: %d provably-fail (MC skipped), %d \
     provably-pass, %d undecided\n\
    \  sim_counts.total %d vs %d without prescreen (%d MC samples saved)\n\
    \  variation points %d vs %d; perf table identical: %b\n\
     %!"
    ps.Config.min_gain_db ps.Config.k_sigma pc.Flow.analysed
    pc.Flow.fail_skipped pc.Flow.provably_passed pc.Flow.undecided ps_total
    base_total (base_total - ps_total)
    (Array.length flow.Flow.var_points)
    (Array.length base.Flow.var_points)
    perf_tables_identical;
  Json.Obj
    [
      ("k_sigma", Json.Float ps.Config.k_sigma);
      ("min_gain_db", Json.Float ps.Config.min_gain_db);
      ("min_pm_deg", Json.Float ps.Config.min_pm_deg);
      ("analysed", Json.Int pc.Flow.analysed);
      ("fail_skipped", Json.Int pc.Flow.fail_skipped);
      ("provably_passed", Json.Int pc.Flow.provably_passed);
      ("undecided", Json.Int pc.Flow.undecided);
      ("sim_counts_total", Json.Int ps_total);
      ("no_prescreen_total", Json.Int base_total);
      ("mc_sims", Json.Int flow.Flow.counts.Flow.mc_sims);
      ("no_prescreen_mc_sims", Json.Int base.Flow.counts.Flow.mc_sims);
      ("var_points", Json.Int (Array.length flow.Flow.var_points));
      ( "no_prescreen_var_points",
        Json.Int (Array.length base.Flow.var_points) );
      ("perf_table_identical", Json.Bool perf_tables_identical);
    ]

(* Solver A/B: per-sample Monte Carlo cost through the Linsys seam.  One
   session per (topology, backend) — the circuit is instantiated and the
   pattern compiled once; csr additionally caches its symbolic
   factorisation — then the same seeded sample stream replays through each
   backend, each sample drawn into its session's borrowed models buffer
   (Variation.draw_into).  Dense is the shipped default and the
   byte-identity reference; the gated flow's sim_counts come from the main
   (dense) run, so this records the seam's per-sample cost next to it
   without perturbing the gate. *)
let solver_ab ctx =
  let module Mtb = Yield_circuits.Miller_testbench in
  let module Clock = Yield_obs.Clock in
  print_string
    (Report.section "Solver A/B: dense vs csr Monte Carlo sessions (miller)");
  let spec = ctx.Experiments.config.Config.variation in
  let params = Yield_circuits.Miller.default_params in
  let samples = at_scale ctx ~paper:200 ~fast:50 in
  let run backend =
    let session = Mtb.session ~solver:backend params in
    (* one warm sample so csr's first-factor cost is not billed per sample *)
    ignore
      (Mtb.evaluate_in_session session ~spec ~rng:(Yield_stats.Rng.create 0));
    let t0 = Clock.now_s () in
    let results =
      Array.init samples (fun seed ->
          Mtb.evaluate_in_session session ~spec
            ~rng:(Yield_stats.Rng.create (seed + 1)))
    in
    let per_sample_us = (Clock.now_s () -. t0) /. float samples *. 1e6 in
    (Mtb.session_solver_name session, per_sample_us, results)
  in
  let name_d, us_d, rs_d = run Yield_numeric.Linsys.Dense in
  let name_c, us_c, rs_c = run Yield_numeric.Linsys.Csr in
  (* agreement between the backends over the kept samples, as a sanity
     number in the document (the tolerance-checked version is a unit test) *)
  let max_rel_diff =
    let worst = ref 0. in
    Array.iteri
      (fun i rd ->
        match (rd, rs_c.(i)) with
        | Some (d : Tb.perf), Some c ->
            let rel a b = Float.abs (a -. b) /. Float.max 1e-9 (Float.abs a) in
            worst :=
              Float.max !worst
                (Float.max (rel d.Tb.gain_db c.Tb.gain_db)
                   (rel d.Tb.phase_margin_deg c.Tb.phase_margin_deg))
        | None, None -> ()
        | Some _, None | None, Some _ -> worst := Float.infinity)
      rs_d;
    !worst
  in
  Printf.printf
    "  %d samples/backend, one session each (pattern + symbolic cached)\n\
    \  %s: %.1f us/sample   %s: %.1f us/sample   (dense/csr = %.2fx)\n\
    \  max relative gain/PM deviation: %.3g\n\
     %!"
    samples name_d us_d name_c us_c (us_d /. us_c) max_rel_diff;
  Json.Obj
    [
      ("samples", Json.Int samples);
      ("dense_us_per_sample", Json.Float us_d);
      ("csr_us_per_sample", Json.Float us_c);
      ("dense_over_csr", Json.Float (us_d /. us_c));
      ("max_rel_diff", Json.Float max_rel_diff);
    ]

let write_bench_json ~prescreen ~solver ?flow_words ctx ~path =
  let flow = ctx.Experiments.flow in
  let t = flow.Flow.timings in
  let c = flow.Flow.counts in
  let snap = Metrics.snapshot () in
  (* the shared field list (Sink.histogram_fields), so the BENCH schema and
     the JSONL sink schema cannot drift apart *)
  let histogram_json (s : Yield_obs.Histogram.summary) =
    Json.Obj (Yield_obs.Sink.histogram_fields s)
  in
  let json =
    Json.Obj
      ([
        ("scale", Json.String (Config.scale_name ctx.Experiments.config));
        ("jobs", Json.Int ctx.Experiments.config.Config.jobs);
        ("cores", Json.Int (Domain.recommended_domain_count ()));
        ( "stage_s",
          Json.Obj
            [
              ("optimisation", Json.Float t.Flow.optimisation_s);
              ("mc", Json.Float t.Flow.mc_s);
              ("total", Json.Float t.Flow.total_s);
            ] );
        ( "sim_counts",
          Json.Obj
            [
              ("optimisation", Json.Int c.Flow.optimisation_sims);
              ("front", Json.Int c.Flow.front_sims);
              ("mc", Json.Int c.Flow.mc_sims);
              ("total", Json.Int (Flow.total_sims c));
            ] );
        ( "counters",
          Json.Obj
            (List.map (fun (n, v) -> (n, Json.Int v)) snap.Metrics.counters) );
        ( "histograms",
          Json.Obj
            (List.map
               (fun (n, s) -> (n, histogram_json s))
               snap.Metrics.histograms) );
      ]
      @ (match flow_words with
        | None -> []
        | Some words ->
            [
              ( "alloc",
                Json.Obj
                  [
                    ( "minor_words_per_sim",
                      Json.Float (words /. float_of_int (Flow.total_sims c)) );
                  ] );
            ])
      @ [ ("prescreen", prescreen); ("solver", solver) ])
  in
  Atomic_io.write_file ~path (Json.to_string json ^ "\n");
  Printf.printf "wrote %s\n%!" path;
  json

(* ------------------------------------------------------------------ *)
(* Ablation benches for the design choices DESIGN.md calls out. *)

let ablation_interpolation ctx =
  (* cubic ("3E", the paper) vs linear ("1E") table models: reproduce the
     models from the same flow data and compare lookup error on the
     Table 3 spec *)
  print_string (Report.section "Ablation: table interpolation degree");
  let flow = ctx.Experiments.flow in
  let points = Perf_model.points flow.Flow.perf_model in
  (* raw (guard:false) lookups so the interpolation degree is what is being
     measured, not the family-snap guard *)
  let spec = ctx.Experiments.spec in
  List.iter
    (fun control ->
      let perf = Perf_model.create ~control points in
      match
        Perf_model.lookup ~guard:false perf
          ~gain_db:spec.Yield_target.min_gain_db
          ~pm_deg:spec.Yield_target.min_pm_deg
      with
      | exception _ -> Printf.printf "%-4s lookup failed\n" control
      | d when Array.exists (fun v -> v <= 0.) d.Perf_model.params ->
          (* spline overshoot can leave the physical parameter range
             entirely — itself a result worth reporting *)
          Printf.printf
            "%-4s interpolation produced non-physical parameters \
             (spline overshoot)\n"
            control
      | d -> begin
          let params = Ota.params_of_array d.Perf_model.params in
          match
            Tb.evaluate ~conditions:ctx.Experiments.config.Config.conditions
              params
          with
          | None -> Printf.printf "%-4s transistor failed\n" control
          | Some perf_t ->
              Printf.printf
                "%-4s claim gain %6.2f / pm %6.2f  realised %6.2f / %6.2f  \
                 (err %.2f%% / %.2f%%)\n"
                control d.Perf_model.gain_db d.Perf_model.pm_deg
                perf_t.Tb.gain_db perf_t.Tb.phase_margin_deg
                (100. *. Float.abs (perf_t.Tb.gain_db -. d.Perf_model.gain_db)
                /. perf_t.Tb.gain_db)
                (100.
                *. Float.abs
                     (perf_t.Tb.phase_margin_deg -. d.Perf_model.pm_deg)
                /. perf_t.Tb.phase_margin_deg)
        end)
    [ "3E"; "2E"; "1E"; "ME" ]

(* the sizing the variation ablations study: the Table 3 design, or the
   front's first point when the spec has none *)
let ablation_design ctx =
  let design =
    match Flow.design_for_spec ctx.Experiments.flow ctx.Experiments.spec with
    | Ok plan -> plan.Yield_target.proposal.Macromodel.design
    | Error _ -> (Perf_model.points ctx.Experiments.flow.Flow.perf_model).(0)
  in
  Ota.params_of_array design.Perf_model.params

let ablation_variation_scaling ctx =
  (* how the Table 2 spreads scale with the process-variation magnitude *)
  print_string (Report.section "Ablation: variation-model scaling");
  let params = ablation_design ctx in
  let conditions = ctx.Experiments.config.Config.conditions in
  let nominal = Tb.evaluate ~conditions params in
  match nominal with
  | None -> print_endline "nominal evaluation failed"
  | Some nom ->
      let session = Tb.session ~conditions params in
      let samples = at_scale ctx ~paper:200 ~fast:40 in
      List.iter
        (fun k ->
          let spec = Variation.scale_spec k Variation.default_spec in
          let rng = Rng.create 13 in
          let { Yield_process.Montecarlo.results; _ } =
            Yield_process.Montecarlo.run ~samples ~rng (fun r ->
                Tb.evaluate_in_session session ~spec ~rng:r)
          in
          let gains = Array.map (fun r -> r.Tb.gain_db) results in
          let pms = Array.map (fun r -> r.Tb.phase_margin_deg) results in
          Printf.printf "sigma x%-4.2g  dGain %5.2f %%   dPM %5.2f %%\n" k
            (Yield_process.Montecarlo.spread_pct gains ~nominal:nom.Tb.gain_db)
            (Yield_process.Montecarlo.spread_pct pms
               ~nominal:nom.Tb.phase_margin_deg))
        [ 0.5; 1.0; 2.0 ]

(* Extended characterisation of the chosen design: the "higher order
   effects" the paper notes could be incorporated — time-domain, rejection
   and noise figures from the same substrate. *)
let extended_characterisation ctx =
  print_string
    (Report.section "Extended characterisation of the Table 3 design");
  match Flow.design_for_spec ctx.Experiments.flow ctx.Experiments.spec with
  | Error e -> print_endline ("no design: " ^ e)
  | Ok plan ->
      let design = plan.Yield_target.proposal.Macromodel.design in
      let params = Ota.params_of_array design.Perf_model.params in
      (match Tb.step_perf params with
      | Some s ->
          Printf.printf
            "step response: slew %.2f V/us, 1%% settling %s, overshoot %.1f %%\n"
            s.Tb.slew_v_per_us
            (match s.Tb.settling_1pct_s with
            | Some t -> Printf.sprintf "%ss" (Report.si t)
            | None -> "not reached")
            s.Tb.overshoot_pct
      | None -> print_endline "step response failed");
      (match Tb.cmrr_db params with
      | Some v -> Printf.printf "CMRR %.1f dB\n" v
      | None -> print_endline "CMRR failed");
      (match Tb.psrr_db params with
      | Some v -> Printf.printf "PSRR %.1f dB\n" v
      | None -> print_endline "PSRR failed");
      (match Tb.input_referred_noise params with
      | Some (_, rms) ->
          Printf.printf "input-referred noise, f_lo to f_u: %.1f uVrms\n"
            (rms *. 1e6)
      | None -> print_endline "noise analysis failed");
      (* which process component drives the gain spread *)
      let spec = ctx.Experiments.config.Config.variation in
      let session =
        Tb.session ~conditions:ctx.Experiments.config.Config.conditions params
      in
      let eval draw =
        Option.map (fun p -> p.Tb.gain_db)
          (Tb.evaluate_with_draw session ~draw)
      in
      (match Yield_process.Sensitivity.analyse ~spec ~eval with
      | Error e -> print_endline ("sensitivity failed: " ^ e)
      | Ok results ->
          print_endline "gain variance decomposition (global components):";
          List.iter
            (fun (r : Yield_process.Sensitivity.result) ->
              Printf.printf "  %-7s %5.1f %%  (%+.4f dB/sigma)\n"
                (Yield_process.Sensitivity.to_string r.Yield_process.Sensitivity.component)
                (100. *. r.Yield_process.Sensitivity.variance_share)
                r.Yield_process.Sensitivity.per_sigma)
            results)

(* Corner analysis as a cheap alternative to the Monte Carlo variation
   model: 5 deterministic corner evaluations vs 200 statistical samples. *)
let ablation_corners_vs_mc ctx =
  print_string (Report.section "Ablation: corner envelope vs Monte Carlo spread");
  let params = ablation_design ctx in
  let conditions = ctx.Experiments.config.Config.conditions in
  let spec = ctx.Experiments.config.Config.variation in
  match Tb.evaluate ~conditions params with
  | None -> print_endline "nominal evaluation failed"
  | Some nominal -> begin
      (* corner envelope: worst deviation across the 3-sigma corners *)
      let corner_dev =
        List.filter_map
          (fun corner ->
            let tech = Yield_process.Corner.apply spec corner conditions.Tb.tech in
            let conditions = { conditions with Tb.tech } in
            Option.map
              (fun (p : Tb.perf) ->
                Float.abs (p.Tb.gain_db -. nominal.Tb.gain_db))
              (Tb.evaluate ~conditions params))
          Yield_process.Corner.all
        |> List.fold_left Float.max 0.
      in
      let corner_pct = 100. *. corner_dev /. nominal.Tb.gain_db in
      (* Monte Carlo 3-sigma spread *)
      let samples = at_scale ctx ~paper:200 ~fast:40 in
      let rng = Rng.create 37 in
      let session = Tb.session ~conditions params in
      let { Yield_process.Montecarlo.results = rs; _ } =
        Yield_process.Montecarlo.run ~samples ~rng (fun r ->
            Tb.evaluate_in_session session ~spec ~rng:r)
      in
      let gains = Array.map (fun r -> r.Tb.gain_db) rs in
      let mc_pct =
        Yield_process.Montecarlo.spread_pct gains ~nominal:nominal.Tb.gain_db
      in
      Printf.printf
        "dGain envelope: corners (5 simulations) %.2f %%, Monte Carlo (%d \
         simulations) %.2f %%\n"
        corner_pct samples mc_pct;
      print_endline
        "corners only shift the corner-defined parameters (vth, kp) and see\n\
         neither channel-length-modulation spread nor mismatch — and this\n\
         OTA's gain variance is lambda-dominated (see the sensitivity\n\
         decomposition above) — which is why the paper's variation model is\n\
         statistical rather than corner-based."
    end

(* Model accuracy across the whole front: sweep the specification through
   the model's range, design by table lookup, verify each design with a
   transistor-level Monte Carlo run.  This generalises Table 4 from one
   point to a curve. *)
let model_accuracy_sweep ctx =
  print_string
    (Report.section "Model accuracy across the specification range");
  let flow = ctx.Experiments.flow in
  let glo, ghi = Perf_model.gain_range flow.Flow.perf_model in
  let vlo, vhi = Var_model.gain_domain flow.Flow.var_model in
  let lo = Float.max glo vlo and hi = Float.min ghi vhi in
  let samples = at_scale ctx ~paper:100 ~fast:24 in
  let fractions = [ 0.15; 0.35; 0.55; 0.75; 0.9 ] in
  Printf.printf
    "spec sweep over gain %.1f..%.1f dB; %d-sample MC verification each\n" lo hi
    samples;
  List.iter
    (fun f ->
      let gain = lo +. (f *. (hi -. lo)) in
      (* the PM requirement follows the front at the inflated gain (first
         design above it), backed off 3 deg so the inflated request stays
         feasible *)
      let points = Perf_model.points flow.Flow.perf_model in
      let dgain =
        try Var_model.dgain_at flow.Flow.var_model ~gain_db:gain with _ -> 1.
      in
      let inflated = gain *. (1. +. (dgain /. 100.)) in
      let above =
        Array.fold_left
          (fun best (p : Perf_model.point) ->
            if p.Perf_model.gain_db >= inflated then
              match best with
              | Some (b : Perf_model.point) when b.Perf_model.gain_db <= p.Perf_model.gain_db -> best
              | _ -> Some p
            else best)
          None points
      in
      let reference =
        match above with Some p -> p | None -> points.(Array.length points - 1)
      in
      let spec =
        {
          Yield_target.min_gain_db = gain;
          min_pm_deg = reference.Perf_model.pm_deg -. 3.;
        }
      in
      match Flow.design_for_spec flow spec with
      | Error e -> Printf.printf "  gain>%.1f: %s\n" gain e
      | Ok plan -> begin
          let design = plan.Yield_target.proposal.Macromodel.design in
          let params = Ota.params_of_array design.Perf_model.params in
          match Flow.verify_design flow ~samples ~spec params with
          | Error e -> Printf.printf "  gain>%.1f: %s\n" gain e
          | Ok v ->
              let claim_err =
                100.
                *. Float.abs (v.Flow.nominal.Tb.gain_db -. design.Perf_model.gain_db)
                /. v.Flow.nominal.Tb.gain_db
              in
              Printf.printf
                "  spec (%.1f dB, %.1f deg): claim %.2f dB, realised %.2f dB \
                 (err %.2f %%), MC yield %.1f %%\n"
                spec.Yield_target.min_gain_db spec.Yield_target.min_pm_deg
                design.Perf_model.gain_db v.Flow.nominal.Tb.gain_db claim_err
                (100. *. v.Flow.yield.Yield_process.Montecarlo.yield)
        end)
    fractions

(* Three-objective variant: add power to the paper's two objectives and
   extract the 3-D non-dominated set (the general-arity Pareto path). *)
let ablation_three_objectives ctx =
  print_string (Report.section "Ablation: adding power as a third objective");
  let conditions = ctx.Experiments.config.Config.conditions in
  let evaluate3 params_arr =
    let params = Ota.params_of_array params_arr in
    let circuit, _ = Tb.build ~conditions params in
    match Yield_spice.Dcop.solve circuit with
    | Error _ -> None
    | Ok op -> begin
        match Tb.bode_of_circuit ~conditions circuit with
        | None -> None
        | Some b -> begin
            match Tb.perf_of_bode conditions b with
            | Some p when Tb.feasible conditions p ->
                let supply_a =
                  Float.abs (Yield_spice.Dcop.branch_current op "VDD")
                in
                let power_mw =
                  conditions.Tb.tech.Yield_process.Tech.vdd *. supply_a *. 1e3
                in
                Some [| p.Tb.gain_db; p.Tb.phase_margin_deg; -.power_mw |]
            | Some _ | None -> None
          end
      end
  in
  let pop, gens = at_scale ctx ~paper:(40, 30) ~fast:(16, 10) in
  let result =
    Wbga.run
      ~config:{ Ga.default_config with Ga.population_size = pop; generations = gens }
      ~param_ranges:Ota.param_ranges
      ~objectives:
        [|
          { Wbga.name = "gain"; maximise = true };
          { Wbga.name = "pm"; maximise = true };
          { Wbga.name = "neg_power"; maximise = true };
        |]
      ~rng:(Rng.create 29) ~evaluate:evaluate3 ()
  in
  Printf.printf "%d evaluations, 3-D front %d points\n" result.Wbga.evaluations
    (Array.length result.Wbga.front);
  let n = Array.length result.Wbga.front in
  Array.iteri
    (fun i (e : Wbga.entry) ->
      if i mod (Stdlib.max 1 (n / 8)) = 0 || i = n - 1 then
        Printf.printf "  gain %6.2f dB  pm %6.2f deg  power %6.3f mW\n"
          e.Wbga.objectives.(0) e.Wbga.objectives.(1)
          (-.e.Wbga.objectives.(2)))
    result.Wbga.front

(* The flow is not OTA-specific: run the same WBGA -> Pareto -> Monte Carlo
   pipeline on the two-stage Miller OTA. *)
let generalisation_miller ctx =
  print_string
    (Report.section "Generalisation: the flow on a two-stage Miller OTA");
  let module Miller = Yield_circuits.Miller in
  let module Mtb = Yield_circuits.Miller_testbench in
  let conditions = Mtb.conditions in
  let pop, gens = at_scale ctx ~paper:(60, 40) ~fast:(24, 12) in
  let result =
    Flow.Miller_flow.optimise
      ~config:{ Ga.default_config with Ga.population_size = pop; generations = gens }
      ~conditions ~rng:(Rng.create 17) ()
  in
  Printf.printf "%d evaluations, %d infeasible, front %d\n"
    result.Wbga.evaluations result.Wbga.failures (Array.length result.Wbga.front);
  let n = Array.length result.Wbga.front in
  Array.iteri
    (fun i (e : Wbga.entry) ->
      if i mod (Stdlib.max 1 (n / 10)) = 0 || i = n - 1 then
        Printf.printf "  gain %6.2f dB   pm %6.2f deg\n" e.Wbga.objectives.(0)
          e.Wbga.objectives.(1))
    result.Wbga.front;
  (* variation spreads on a handful of front designs *)
  if n > 0 then begin
    let samples = at_scale ctx ~paper:60 ~fast:20 in
    let rng = Rng.create 23 in
    let picks = [ 0; n / 2; n - 1 ] |> List.sort_uniq compare in
    List.iter
      (fun i ->
        let e = result.Wbga.front.(i) in
        let session =
          Mtb.session ~conditions (Miller.params_of_array e.Wbga.params)
        in
        let { Yield_process.Montecarlo.results = rs; _ } =
          Yield_process.Montecarlo.run ~samples ~rng (fun r ->
              Mtb.evaluate_in_session session
                ~spec:ctx.Experiments.config.Config.variation ~rng:r)
        in
        if Array.length rs > 4 then begin
          let gains = Array.map (fun r -> r.Tb.gain_db) rs in
          let pms = Array.map (fun r -> r.Tb.phase_margin_deg) rs in
          Printf.printf
            "  front #%d: gain %.2f dB (dGain %.2f %%), pm %.2f deg (dPM %.2f %%)\n"
            (i + 1) e.Wbga.objectives.(0)
            (Yield_process.Montecarlo.spread_pct gains
               ~nominal:e.Wbga.objectives.(0))
            e.Wbga.objectives.(1)
            (Yield_process.Montecarlo.spread_pct pms
               ~nominal:e.Wbga.objectives.(1))
        end)
      picks
  end

(* ------------------------------------------------------------------ *)
(* The perf-regression gate (README.md §Telemetry documents the baseline
   refresh procedure):

     bench --write-baseline PATH   distil this run into a baseline file
     bench --check BASELINE        diff this run against a baseline;
                                   exit 1 on any finding
     bench --bench BENCH.json ...  gate an existing BENCH_flow.json instead
                                   of running the flow (offline: the same
                                   run can be diffed against several
                                   baselines without timing noise between
                                   them)

   Running the flow for the gate is flow-only (the ablation/experiment
   suite is not part of the gated surface). *)

module Perf_gate = Yield_core.Perf_gate

type cli = {
  check : string option;
  write_baseline : string option;
  bench_file : string option;
}

let usage () =
  prerr_endline
    "usage: bench [--bench BENCH.json] [--check BASELINE] [--write-baseline \
     PATH]";
  exit 2

let parse_cli () =
  let rec go acc = function
    | [] -> acc
    | "--check" :: path :: rest -> go { acc with check = Some path } rest
    | "--write-baseline" :: path :: rest ->
        go { acc with write_baseline = Some path } rest
    | "--bench" :: path :: rest -> go { acc with bench_file = Some path } rest
    | ("--check" | "--write-baseline" | "--bench") :: [] -> usage ()
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %s\n" arg;
        usage ()
  in
  let cli =
    go
      { check = None; write_baseline = None; bench_file = None }
      (List.tl (Array.to_list Sys.argv))
  in
  if cli.bench_file <> None && cli.check = None && cli.write_baseline = None
  then usage ();
  cli

(* a gate input that cannot be read or parsed is refused with one line
   naming it and exit 2, never a backtrace *)
let read_json path =
  let refuse reason =
    Printf.eprintf "bench: %s: %s\n" path reason;
    exit 2
  in
  match Atomic_io.read_file ~path with
  | exception Sys_error msg ->
      (* Sys_error names the file itself: keep only its reason *)
      let prefix = path ^ ": " in
      let n = String.length prefix in
      refuse
        (if String.starts_with ~prefix msg then
           String.sub msg n (String.length msg - n)
         else msg)
  | text -> (
      match Json.parse text with
      | Json.Obj _ as json -> json
      | _ -> refuse "not a JSON object"
      | exception Json.Parse_error msg -> refuse msg)

let run_gate cli ~baseline bench_json =
  Option.iter
    (fun path ->
      Atomic_io.write_file ~path
        (Json.to_string (Perf_gate.baseline_of_bench bench_json) ^ "\n");
      Printf.printf "wrote baseline %s\n%!" path)
    cli.write_baseline;
  Option.iter
    (fun (path, baseline) ->
      match Perf_gate.check ~baseline ~bench:bench_json with
      | [] -> Printf.printf "perf gate: OK against %s\n%!" path
      | findings ->
          Printf.eprintf "perf gate: %d finding(s) against %s\n"
            (List.length findings) path;
          List.iter
            (fun f -> Printf.eprintf "  %s\n" (Perf_gate.to_string f))
            findings;
          Printf.eprintf "%!";
          exit 1)
    baseline

let () =
  let cli = parse_cli () in
  (* read first, so a bad baseline is refused before any flow runs *)
  let baseline = Option.map (fun path -> (path, read_json path)) cli.check in
  (match cli.bench_file with
  | None -> ()
  | Some path ->
      (* offline gate: no flow run, just diff the recorded document *)
      run_gate cli ~baseline (read_json path);
      Printf.printf "gated %s\n%!" path;
      exit 0);
  let config =
    match Config.of_env () with
    | Ok config -> config
    | Error diags ->
        List.iter
          (fun d ->
            Printf.eprintf "bench: %s\n" (Yield_analyse.Diagnostic.to_text d))
          diags;
        exit 2
  in
  Printf.printf
    "yieldlab benchmark harness — %s (set YIELDLAB_FAST=1 for a smoke run)\n%!"
    (Config.scale_name config);
  (* the gated flow's allocation, a machine-independent cost the gate can
     hold to its baseline.  Gc.minor_words counts the calling domain only,
     so it covers the whole flow only when the flow runs in it: jobs = 1 *)
  let words_before = Gc.minor_words () in
  let ctx = Experiments.make_context ~log:(Printf.printf "%s\n%!") config in
  let flow_words =
    if config.Config.jobs = 1 then Some (Gc.minor_words () -. words_before)
    else None
  in
  let prescreen = prescreen_ab ctx in
  let solver = solver_ab ctx in
  let bench_json =
    write_bench_json ~prescreen ~solver ?flow_words ctx ~path:"BENCH_flow.json"
  in
  run_gate cli ~baseline bench_json;
  if cli.check <> None || cli.write_baseline <> None then begin
    print_string (Report.section "done (perf gate)");
    exit 0
  end;
  List.iter
    (fun (_, f) ->
      print_string (f ctx);
      Printf.printf "%!")
    Experiments.all;
  extended_characterisation ctx;
  ablation_interpolation ctx;
  ablation_variation_scaling ctx;
  ablation_corners_vs_mc ctx;
  model_accuracy_sweep ctx;
  ablation_three_objectives ctx;
  generalisation_miller ctx;
  print_string (Report.section "done")
