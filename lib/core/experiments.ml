module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Filter = Yield_circuits.Filter
module Wbga = Yield_ga.Wbga
module Rng = Yield_stats.Rng
module Summary = Yield_stats.Summary
module Measure = Yield_spice.Measure
module Ac = Yield_spice.Ac
module Montecarlo = Yield_process.Montecarlo
module Variation = Yield_process.Variation
module Perf_model = Yield_behavioural.Perf_model
module Var_model = Yield_behavioural.Var_model
module Macromodel = Yield_behavioural.Macromodel
module Yield_target = Yield_behavioural.Yield_target

type context = {
  config : Config.t;
  flow : Flow.t;
  spec : Yield_target.spec;
}

(* Pick the Table 3 spec from the front itself: a gain at 60 % of the span
   and the PM the front offers just above that gain, each backed off so the
   inflated targets stay inside the tables.  The PM reference point is the
   nearest front sample (not a spline evaluation): cubic splines ring through
   the steep tail of a Pareto front. *)
let spec_for_flow (flow : Flow.t) =
  let points = Perf_model.points flow.Flow.perf_model in
  let lo, hi = Perf_model.gain_range flow.Flow.perf_model in
  (* both models must cover the spec: intersect the front's gain span with
     the variation table's domain (the strided MC step may cover less) *)
  let vlo, vhi = Var_model.gain_domain flow.Flow.var_model in
  let lo = Float.max lo vlo and hi = Float.min hi vhi in
  let gain = Float.round (lo +. (0.6 *. (hi -. lo))) in
  let gain = Float.max lo (Float.min hi gain) in
  let dgain =
    try Var_model.dgain_at flow.Flow.var_model ~gain_db:gain with _ -> 1.
  in
  let inflated = gain *. (1. +. (dgain /. 100.)) in
  let nearest =
    Array.fold_left
      (fun best (p : Perf_model.point) ->
        if
          Float.abs (p.Perf_model.gain_db -. inflated)
          < Float.abs (best.Perf_model.gain_db -. inflated)
        then p
        else best)
      points.(0) points
  in
  let plo, phi = Var_model.pm_domain flow.Flow.var_model in
  let pm = Float.round (nearest.Perf_model.pm_deg -. 3.) in
  let pm = Float.max plo (Float.min phi pm) in
  { Yield_target.min_gain_db = gain; min_pm_deg = pm }

let make_context ?log config =
  let flow = Flow.run ?log config in
  { config; flow; spec = spec_for_flow flow }

let scale_banner ctx what =
  Printf.sprintf "[%s, %s]\n" what (Config.scale_name ctx.config)

(* ---------- Figure 7 ---------- *)

let fig7 ctx =
  let buf = Buffer.create 4096 in
  let archive = ctx.flow.Flow.wbga.Wbga.archive in
  let front = ctx.flow.Flow.wbga.Wbga.front in
  Buffer.add_string buf (Report.section "Figure 7: gain and phase margin for individuals");
  Buffer.add_string buf (scale_banner ctx "WBGA evaluation cloud + Pareto front");
  let gains = Array.map (fun (e : Wbga.entry) -> e.Wbga.objectives.(0)) archive in
  let pms = Array.map (fun (e : Wbga.entry) -> e.Wbga.objectives.(1)) archive in
  let gs = Summary.of_array gains and ps = Summary.of_array pms in
  Buffer.add_string buf
    (Printf.sprintf
       "individuals: %d evaluated (%d infeasible not shown), front: %d points\n"
       (ctx.flow.Flow.wbga.Wbga.evaluations)
       ctx.flow.Flow.wbga.Wbga.failures (Array.length front));
  Buffer.add_string buf
    (Printf.sprintf "cloud gain: min %.2f / mean %.2f / max %.2f dB\n"
       (Summary.min_value gs) (Summary.mean gs) (Summary.max_value gs));
  Buffer.add_string buf
    (Printf.sprintf "cloud PM:   min %.2f / mean %.2f / max %.2f deg\n"
       (Summary.min_value ps) (Summary.mean ps) (Summary.max_value ps));
  let n = Array.length front in
  let step = Stdlib.max 1 (n / 30) in
  let rows = ref [] in
  Array.iteri
    (fun i (e : Wbga.entry) ->
      if i mod step = 0 || i = n - 1 then
        rows :=
          [
            string_of_int (i + 1);
            Report.float_cell e.Wbga.objectives.(0);
            Report.float_cell e.Wbga.objectives.(1);
          ]
          :: !rows)
    front;
  Buffer.add_string buf "\nPareto front series (subsampled):\n";
  Buffer.add_string buf
    (Report.table ~header:[ "#"; "Gain (dB)"; "PM (deg)" ] (List.rev !rows));
  Buffer.contents buf

(* ---------- Table 2 ---------- *)

(* Ten designs spread evenly across the central part of the front's *gain
   span* (not its index range: a converged GA piles hundreds of front points
   onto the max-gain corner), mirroring the paper's designs 21..38 around
   its 50 dB spec region. *)
let table2_points ctx =
  let pts = Array.copy ctx.flow.Flow.var_points in
  Array.sort
    (fun (a : Var_model.point) b -> Float.compare a.Var_model.gain_db b.Var_model.gain_db)
    pts;
  let n = Array.length pts in
  let g_lo = pts.(0).Var_model.gain_db and g_hi = pts.(n - 1).Var_model.gain_db in
  let lo = g_lo +. (0.30 *. (g_hi -. g_lo)) in
  let hi = g_lo +. (0.92 *. (g_hi -. g_lo)) in
  let count = Stdlib.min 10 n in
  let used = Hashtbl.create 16 in
  let nearest target =
    let best = ref 0 and best_d = ref infinity in
    Array.iteri
      (fun i (p : Var_model.point) ->
        let d = Float.abs (p.Var_model.gain_db -. target) in
        if d < !best_d && not (Hashtbl.mem used i) then begin
          best := i;
          best_d := d
        end)
      pts;
    Hashtbl.replace used !best ();
    !best
  in
  let picks =
    Array.init count (fun k ->
        let target =
          if count = 1 then lo
          else lo +. (float_of_int k /. float_of_int (count - 1) *. (hi -. lo))
        in
        nearest target)
  in
  Array.sort compare picks;
  Array.map (fun i -> (i, pts.(i))) picks

let table2 ctx =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Report.section "Table 2: performance and variation values");
  Buffer.add_string buf (scale_banner ctx "per-Pareto-point Monte Carlo spreads");
  let rows =
    Array.to_list
      (Array.map
         (fun (i, (p : Var_model.point)) ->
           [
             string_of_int i;
             Report.float_cell p.Var_model.gain_db;
             Report.float_cell p.Var_model.dgain_pct;
             Report.float_cell p.Var_model.pm_deg;
             Report.float_cell p.Var_model.dpm_pct;
           ])
         (table2_points ctx))
  in
  Buffer.add_string buf
    (Report.table
       ~header:[ "Design"; "Gain (dB)"; "dGain (%)"; "PM (deg)"; "dPM (%)" ]
       rows);
  Buffer.contents buf

(* ---------- Table 3 ---------- *)

let table3 ctx =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Report.section "Table 3: yield-targeting interpolation example");
  (match Flow.design_for_spec ctx.flow ctx.spec with
  | Error e -> Buffer.add_string buf ("ERROR: " ^ e ^ "\n")
  | Ok plan ->
      let p = plan.Yield_target.proposal in
      Buffer.add_string buf
        (Report.table
           ~header:
             [ "Performance"; "Required"; "Variation"; "New Performance" ]
           [
             [
               "Gain";
               Printf.sprintf "> %.0f dB" ctx.spec.Yield_target.min_gain_db;
               Printf.sprintf "%.2f %%" p.Macromodel.gain_delta_pct;
               Printf.sprintf "%.2f dB" p.Macromodel.proposed_gain_db;
             ];
             [
               "Phase Margin";
               Printf.sprintf "> %.0f deg" ctx.spec.Yield_target.min_pm_deg;
               Printf.sprintf "%.2f %%" p.Macromodel.pm_delta_pct;
               Printf.sprintf "%.2f deg" p.Macromodel.proposed_pm_deg;
             ];
           ]);
      Buffer.add_string buf
        (Printf.sprintf
           "worst-case after variation: gain %.2f dB, PM %.2f deg (spec: %.0f / %.0f)\n"
           plan.Yield_target.worst_case_gain_db plan.Yield_target.worst_case_pm_deg
           ctx.spec.Yield_target.min_gain_db ctx.spec.Yield_target.min_pm_deg);
      Buffer.add_string buf
        (Printf.sprintf "predicted yield: %.2f %%\n"
           (100. *. Yield_target.predicted_yield plan)));
  Buffer.contents buf

(* ---------- Table 4 ---------- *)

let table4 ctx =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Report.section "Table 4: performance comparison");
  (match Flow.design_for_spec ctx.flow ctx.spec with
  | Error e -> Buffer.add_string buf ("ERROR: " ^ e ^ "\n")
  | Ok plan ->
      let design = plan.Yield_target.proposal.Macromodel.design in
      let params = Ota.params_of_array design.Perf_model.params in
      (match Tb.evaluate ~conditions:ctx.config.Config.conditions params with
      | None -> Buffer.add_string buf "ERROR: transistor simulation failed\n"
      | Some perf ->
          let err a b = 100. *. Float.abs (a -. b) /. Float.abs a in
          Buffer.add_string buf
            (Report.table
               ~header:
                 [
                   "Performance Function";
                   "Transistor Model";
                   "Behavioural Model";
                   "% error";
                 ]
               [
                 [
                   "Gain (dB)";
                   Report.float_cell perf.Tb.gain_db;
                   Report.float_cell design.Perf_model.gain_db;
                   Report.float_cell (err perf.Tb.gain_db design.Perf_model.gain_db);
                 ];
                 [
                   "Phase Margin (deg)";
                   Report.float_cell perf.Tb.phase_margin_deg;
                   Report.float_cell design.Perf_model.pm_deg;
                   Report.float_cell
                     (err perf.Tb.phase_margin_deg design.Perf_model.pm_deg);
                 ];
               ]);
          (* the same comparison with the family guard disabled: the paper's
             raw two-input $table_model interpolation *)
          let p = plan.Yield_target.proposal in
          let raw =
            Perf_model.lookup ~guard:false ctx.flow.Flow.perf_model
              ~gain_db:p.Macromodel.proposed_gain_db
              ~pm_deg:p.Macromodel.proposed_pm_deg
          in
          let raw_params = Ota.params_of_array raw.Perf_model.params in
          (match
             Tb.evaluate ~conditions:ctx.config.Config.conditions raw_params
           with
          | None ->
              Buffer.add_string buf
                "raw interpolation: transistor simulation failed\n"
          | Some rperf ->
              Buffer.add_string buf
                "\nraw (unguarded) table interpolation, as in the paper:\n";
              Buffer.add_string buf
                (Report.table
                   ~header:
                     [
                       "Performance Function";
                       "Transistor Model";
                       "Behavioural Model";
                       "% error";
                     ]
                   [
                     [
                       "Gain (dB)";
                       Report.float_cell rperf.Tb.gain_db;
                       Report.float_cell raw.Perf_model.gain_db;
                       Report.float_cell
                         (err rperf.Tb.gain_db raw.Perf_model.gain_db);
                     ];
                     [
                       "Phase Margin (deg)";
                       Report.float_cell rperf.Tb.phase_margin_deg;
                       Report.float_cell raw.Perf_model.pm_deg;
                       Report.float_cell
                         (err rperf.Tb.phase_margin_deg raw.Perf_model.pm_deg);
                     ];
                   ]))));
  Buffer.contents buf

(* ---------- Table 5 ---------- *)

let table5 ?(run_baseline = true) ctx =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Report.section "Table 5: design parameter summary");
  let counts = ctx.flow.Flow.counts in
  let timings = ctx.flow.Flow.timings in
  Buffer.add_string buf
    (Report.table ~header:[ "Parameter"; "Value" ]
       [
         [
           "No. generations";
           string_of_int ctx.config.Config.ga.Yield_ga.Ga.generations;
         ];
         [ "Evaluation samples"; string_of_int counts.Flow.optimisation_sims ];
         [
           "Pareto points";
           string_of_int (Array.length ctx.flow.Flow.front_points);
         ];
         [ "MC samples per point"; string_of_int ctx.config.Config.mc_samples ];
         [ "Variation-model simulations"; string_of_int counts.Flow.mc_sims ];
         [ "Total simulations"; string_of_int (Flow.total_sims counts) ];
         [
           "CPU time, optimisation stage";
           Printf.sprintf "%.1f s" timings.Flow.optimisation_s;
         ];
         [ "CPU time, MC stage"; Printf.sprintf "%.1f s" timings.Flow.mc_s ];
         [ "CPU time, total"; Printf.sprintf "%.1f s" timings.Flow.total_s ];
       ]);
  if run_baseline then begin
    let baseline_config =
      let d = Baseline.default_config ctx.spec in
      { d with Baseline.conditions = ctx.config.Config.conditions;
               variation = ctx.config.Config.variation }
    in
    let b = Baseline.run baseline_config in
    Buffer.add_string buf
      "\nConventional comparison (MC-in-the-loop yield optimisation, ref [5]):\n";
    Buffer.add_string buf
      (Report.table ~header:[ "Approach"; "Sims (1st spec)"; "Sims (each new spec)"; "Wall (s)" ]
         [
           [
             "proposed (model + lookup)";
             string_of_int (Flow.total_sims counts);
             "0 (table lookup)";
             Printf.sprintf "%.1f" timings.Flow.total_s;
           ];
           [
             "conventional (MC in loop)";
             string_of_int b.Baseline.sims;
             string_of_int (Baseline.sims_per_extra_spec baseline_config);
             Printf.sprintf "%.1f" b.Baseline.wall_s;
           ];
         ]);
    let per_spec = Baseline.sims_per_extra_spec baseline_config in
    let proposed_total = Flow.total_sims counts in
    let break_even =
      int_of_float
        (Float.ceil (float_of_int proposed_total /. float_of_int per_spec))
    in
    Buffer.add_string buf
      (Printf.sprintf
         "hierarchical reuse: the proposed model answers every further \
          specification\nby table lookup; the conventional approach re-spends \
          %d simulations per\nspecification, so the model investment amortises \
          after %d specification(s).\n"
         per_spec break_even);
    Buffer.add_string buf
      (Printf.sprintf
         "baseline best candidate: yield estimate %.0f %%, nominal gain %s dB, PM %s deg\n"
         (100. *. b.Baseline.best_yield)
         (match b.Baseline.nominal with
         | Some p -> Report.float_cell p.Tb.gain_db
         | None -> "n/a")
         (match b.Baseline.nominal with
         | Some p -> Report.float_cell p.Tb.phase_margin_deg
         | None -> "n/a"))
  end;
  Buffer.contents buf

(* ---------- Figure 8 ---------- *)

let fig8 ctx =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Report.section "Figure 8: open-loop gain comparison");
  (match Flow.design_for_spec ctx.flow ctx.spec with
  | Error e -> Buffer.add_string buf ("ERROR: " ^ e ^ "\n")
  | Ok plan ->
      let design = plan.Yield_target.proposal.Macromodel.design in
      let params = Ota.params_of_array design.Perf_model.params in
      let conditions = ctx.config.Config.conditions in
      (match Tb.bode ~conditions params with
      | None -> Buffer.add_string buf "ERROR: transistor simulation failed\n"
      | Some transistor ->
          let model =
            Macromodel.bode ~f_lo:conditions.Tb.f_lo ~f_hi:conditions.Tb.f_hi
              ~per_decade:conditions.Tb.points_per_decade
              ~gain_db:design.Perf_model.gain_db ~rout:design.Perf_model.rout
              ~load_cap:conditions.Tb.load_cap ()
          in
          let t_mag = Measure.magnitudes_db transistor in
          let m_mag = Measure.magnitudes_db model in
          let divergence = ref None in
          Array.iteri
            (fun i f ->
              if !divergence = None && Float.abs (t_mag.(i) -. m_mag.(i)) > 1.
              then divergence := Some f)
            transistor.Ac.freqs;
          let rows = ref [] in
          let n = Array.length transistor.Ac.freqs in
          let step = Stdlib.max 1 (n / 20) in
          Array.iteri
            (fun i f ->
              if i mod step = 0 || i = n - 1 then
                rows :=
                  [
                    Report.si f ^ "Hz";
                    Report.float_cell t_mag.(i);
                    Report.float_cell m_mag.(i);
                  ]
                  :: !rows)
            transistor.Ac.freqs;
          Buffer.add_string buf
            (Report.table
               ~header:[ "Frequency"; "Transistor (dB)"; "Verilog-A model (dB)" ]
               (List.rev !rows));
          Buffer.add_string buf
            (match !divergence with
            | Some f ->
                Printf.sprintf
                  "divergence (>1 dB, parasitic poles not modelled) above %sHz\n"
                  (Report.si f)
            | None -> "model and transistor agree within 1 dB everywhere\n")));
  Buffer.contents buf

(* ---------- Figure 10 ---------- *)

let fig10 _ctx =
  let buf = Buffer.create 512 in
  let s = Filter.default_spec in
  Buffer.add_string buf (Report.section "Figure 10: filter specification");
  Buffer.add_string buf
    (Report.table ~header:[ "Region"; "Band"; "Requirement" ]
       [
         [
           "passband";
           Printf.sprintf "DC - %sHz" (Report.si s.Filter.f_pass);
           Printf.sprintf "gain within +-%.1f dB of DC" s.Filter.ripple_db;
         ];
         [
           "stopband";
           Printf.sprintf ">= %sHz" (Report.si s.Filter.f_stop);
           Printf.sprintf "attenuation >= %.0f dB" s.Filter.atten_db;
         ];
       ]);
  Buffer.contents buf

(* ---------- Figure 11 ---------- *)

let fig11 ctx =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Report.section "Figure 11 (and §5): filter design from the behavioural model");
  (match Flow.design_for_spec ctx.flow ctx.spec with
  | Error e -> Buffer.add_string buf ("ERROR: " ^ e ^ "\n")
  | Ok plan ->
      let design = plan.Yield_target.proposal.Macromodel.design in
      let amp = Macromodel.amp_of_design design in
      Buffer.add_string buf
        (Printf.sprintf
           "OTA selected from model: gain %.2f dB, PM %.2f deg, rout %sOhm\n"
           design.Perf_model.gain_db design.Perf_model.pm_deg
           (Report.si design.Perf_model.rout));
      let spec = Filter.default_spec in
      (* design against a guard-banded mask — the same inflate-the-target
         idea as the §4.4 yield targeting: the guard absorbs the behavioural
         model's residual error and the process spread, so the verified
         transistor-level filter still clears the true mask *)
      let design_spec =
        {
          spec with
          Filter.ripple_db = spec.Filter.ripple_db -. 0.2;
          atten_db = spec.Filter.atten_db +. 3.;
        }
      in
      let opt = Filter.optimise amp design_spec (Rng.create 11) in
      let caps = opt.Filter.best in
      Buffer.add_string buf
        (Printf.sprintf
           "filter MOO (30 individuals x 40 generations, %d evaluations):\n\
            C1 = %sF, C2 = %sF, C3 = %sF\n"
           opt.Filter.evaluations (Report.si caps.Filter.c1)
           (Report.si caps.Filter.c2) (Report.si caps.Filter.c3));
      Buffer.add_string buf
        (Printf.sprintf
           "behavioural-model margins: passband %.2f dB, stopband %.2f dB (meets spec: %b)\n"
           opt.Filter.best_check.Filter.passband_margin_db
           opt.Filter.best_check.Filter.stopband_margin_db
           opt.Filter.best_check.Filter.meets_spec);
      (* transistor-level verification *)
      let params = Ota.params_of_array design.Perf_model.params in
      (match Filter.response_transistor params caps with
      | None -> Buffer.add_string buf "ERROR: transistor filter failed to bias\n"
      | Some bode ->
          let c = Filter.check spec bode in
          Buffer.add_string buf
            (Printf.sprintf
               "transistor-level margins:   passband %.2f dB, stopband %.2f dB (meets spec: %b)\n"
               c.Filter.passband_margin_db c.Filter.stopband_margin_db
               c.Filter.meets_spec);
          let mags = Measure.magnitudes_db bode in
          let rows = ref [] in
          let n = Array.length bode.Ac.freqs in
          let step = Stdlib.max 1 (n / 16) in
          Array.iteri
            (fun i f ->
              if i mod step = 0 || i = n - 1 then
                rows := [ Report.si f ^ "Hz"; Report.float_cell mags.(i) ] :: !rows)
            bode.Ac.freqs;
          Buffer.add_string buf "\ntypical-mean transistor filter response:\n";
          Buffer.add_string buf
            (Report.table ~header:[ "Frequency"; "Gain (dB)" ] (List.rev !rows));
          (* Monte Carlo yield of the closed filter *)
          let mc_samples = if Config.scale_name ctx.config = "paper-scale" then 500 else 60 in
          let circuit, out = Filter.build_transistor params caps in
          (* every perturbed sample keeps the topology: one session *)
          let sys = Yield_spice.Mna.sys circuit in
          let rng = Rng.create 99 in
          let { Montecarlo.results; _ } =
            Montecarlo.run ~samples:mc_samples ~rng (fun sample_rng ->
                let perturbed =
                  Variation.perturb_circuit ctx.config.Config.variation
                    sample_rng circuit
                in
                match Filter.response_of_circuit ~sys perturbed ~out with
                | None -> None
                | Some b -> Some (Filter.check spec b))
          in
          let yield_est =
            Montecarlo.yield_of (fun c -> c.Filter.meets_spec) results
          in
          Buffer.add_string buf
            (Printf.sprintf
               "\nMonte Carlo verification (%d samples): yield %.1f %% (95%% CI %.1f-%.1f)\n"
               (Array.length results)
               (100. *. yield_est.Montecarlo.yield)
               (100. *. yield_est.Montecarlo.ci_low)
               (100. *. yield_est.Montecarlo.ci_high))));
  Buffer.contents buf

let all =
  [
    ("fig7", fig7);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", fun ctx -> table5 ctx);
    ("fig8", fig8);
    ("fig10", fig10);
    ("fig11", fig11);
  ]
