(* Tests for the yield_circuits library: the OTA, its testbench, and the
   gm-C filter. *)

module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Filter = Yield_circuits.Filter
module Mosfet = Yield_spice.Mosfet
module Circuit = Yield_spice.Circuit
module Dcop = Yield_spice.Dcop
module Measure = Yield_spice.Measure
module Variation = Yield_process.Variation
module Rng = Yield_stats.Rng

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

(* --- OTA parameters --- *)

let test_param_roundtrip () =
  let p = Ota.default_params in
  let p2 = Ota.params_of_array (Ota.params_to_array p) in
  Alcotest.(check bool) "roundtrip" true (p = p2)

let test_param_ranges_match_table1 () =
  Alcotest.(check int) "8 parameters" 8 (Array.length Ota.param_ranges);
  Array.iter
    (fun (r : Yield_ga.Genome.range) ->
      if r.Yield_ga.Genome.name.[0] = 'w' then begin
        check_float "w lo" 10e-6 r.Yield_ga.Genome.lo;
        check_float "w hi" 60e-6 r.Yield_ga.Genome.hi
      end
      else begin
        check_float "l lo" 0.35e-6 r.Yield_ga.Genome.lo;
        check_float "l hi" 4e-6 r.Yield_ga.Genome.hi
      end)
    Ota.param_ranges

let test_clamp_params () =
  let p = Ota.clamp_params { Ota.default_params with Ota.w1 = 1.; l1 = 0. } in
  check_float "w clamped" Ota.w_max p.Ota.w1;
  check_float "l clamped" Ota.l_min p.Ota.l1

let test_mirror_factor () =
  let p = { Ota.default_params with Ota.w2 = 60e-6; l2 = 1e-6; w1 = 30e-6; l1 = 1e-6 } in
  check_float "B" 2. (Ota.mirror_factor p)

(* --- DC health --- *)

let tb_circuit params =
  let c, out = Tb.build params in
  match Dcop.solve c with
  | Ok op -> (c, out, op)
  | Error e -> Alcotest.failf "testbench dcop failed: %s" (Dcop.error_to_string e)

let test_ota_bias_point () =
  let c, _, op = tb_circuit Ota.default_params in
  (* output settles near the input common mode thanks to the DC loop *)
  let vout = Dcop.voltage_by_name op c "out" in
  check_float ~eps:0.05 "out near vcm" Tb.default_conditions.Tb.vcm vout;
  (* the mirrors must copy the bias current *)
  let m9 = Dcop.mos_op op "x1.M9" in
  check_float ~eps:0.02 "bias current" Ota.bias_current m9.Mosfet.ids;
  let m10 = Dcop.mos_op op "x1.M10" in
  check_float ~eps:0.10 "tail current" Ota.bias_current m10.Mosfet.ids;
  (* differential pair splits the tail evenly *)
  let m1 = Dcop.mos_op op "x1.M1" in
  let m2 = Dcop.mos_op op "x1.M2" in
  check_float ~eps:0.1 "balanced pair" m1.Mosfet.ids m2.Mosfet.ids

let test_ota_no_cutoff_devices () =
  let _, _, op = tb_circuit Ota.default_params in
  List.iter
    (fun (name, mos) ->
      if mos.Mosfet.region = Mosfet.Cutoff then
        Alcotest.failf "%s is in cutoff" name)
    op.Dcop.mos_ops

(* --- performance extraction --- *)

let test_evaluate_default () =
  match Tb.evaluate Ota.default_params with
  | None -> Alcotest.fail "evaluation failed"
  | Some perf ->
      Alcotest.(check bool) "plausible gain" true
        (perf.Tb.gain_db > 35. && perf.Tb.gain_db < 70.);
      Alcotest.(check bool) "plausible pm" true
        (perf.Tb.phase_margin_deg > 10. && perf.Tb.phase_margin_deg < 95.);
      Alcotest.(check bool) "fu above f3db" true
        (perf.Tb.unity_gain_hz > perf.Tb.f3db_hz);
      (* single-pole consistency: fu ~ gain_lin * f3db *)
      let gain_lin = 10. ** (perf.Tb.gain_db /. 20.) in
      check_float ~eps:0.2 "gbw consistency" (gain_lin *. perf.Tb.f3db_hz)
        perf.Tb.unity_gain_hz

let test_longer_output_l_raises_gain () =
  let base = Option.get (Tb.evaluate Ota.default_params) in
  let long_l =
    Option.get
      (Tb.evaluate { Ota.default_params with Ota.l2 = 4e-6; l3 = 4e-6 })
  in
  Alcotest.(check bool) "gain increases with output L" true
    (long_l.Tb.gain_db > base.Tb.gain_db +. 3.)

let test_bigger_mirror_factor_lowers_pm () =
  let small_b = Option.get (Tb.evaluate Ota.default_params) in
  let big_b =
    Option.get
      (Tb.evaluate
         { Ota.default_params with Ota.w2 = 60e-6; l2 = 0.35e-6; w1 = 10e-6; l1 = 2e-6 })
  in
  Alcotest.(check bool) "pm drops with mirror factor" true
    (big_b.Tb.phase_margin_deg < small_b.Tb.phase_margin_deg -. 10.);
  Alcotest.(check bool) "fu rises with mirror factor" true
    (big_b.Tb.unity_gain_hz > small_b.Tb.unity_gain_hz)

let test_feasibility_constraint () =
  let perf = Option.get (Tb.evaluate Ota.default_params) in
  Alcotest.(check bool) "default feasible" true
    (Tb.feasible Tb.default_conditions perf);
  let strict =
    { Tb.default_conditions with Tb.min_unity_gain_hz = 1e12 }
  in
  Alcotest.(check bool) "strict infeasible" false (Tb.feasible strict perf)

let test_evaluate_sampled_differs () =
  let rng = Rng.create 3 in
  let nominal = Option.get (Tb.evaluate Ota.default_params) in
  let sampled =
    Option.get
      (Tb.evaluate_sampled ~spec:Variation.default_spec ~rng Ota.default_params)
  in
  Alcotest.(check bool) "sampled moves" true
    (sampled.Tb.gain_db <> nominal.Tb.gain_db);
  Alcotest.(check bool) "sampled close" true
    (Float.abs (sampled.Tb.gain_db -. nominal.Tb.gain_db) < 3.)

let test_objectives_order () =
  let perf = Option.get (Tb.evaluate Ota.default_params) in
  let o = Tb.objectives perf in
  check_float "gain first" perf.Tb.gain_db o.(0);
  check_float "pm second" perf.Tb.phase_margin_deg o.(1)

(* --- filter --- *)

(* perf_of_bode measures the sweep in one pass; it must agree bit for bit
   with the Measure functions it replaces, each of which recomputes the
   magnitudes (and phase_margin_deg the unity crossing) on its own *)
let test_perf_of_bode_one_pass () =
  let module Gtb = Yield_circuits.Testbench in
  let module Ac = Yield_spice.Ac in
  let conditions = Gtb.default_conditions in
  let three_pass b =
    let gain_db = Measure.dc_gain_db b in
    match (Measure.unity_gain_freq b, Measure.phase_margin_deg b) with
    | Some fu, Some pm when Float.is_finite gain_db ->
        let f3db = Option.value (Measure.f3db b) ~default:nan in
        let gain_lin = 10. ** (gain_db /. 20.) in
        Some
          [|
            gain_db;
            pm;
            fu;
            f3db;
            gain_lin /. (2. *. Float.pi *. fu *. conditions.Gtb.load_cap);
          |]
    | _ -> None
  in
  let fields (p : Gtb.perf) =
    [| p.gain_db; p.phase_margin_deg; p.unity_gain_hz; p.f3db_hz; p.rout_est |]
  in
  let freqs = Gtb.freqs_of conditions in
  (* a two-pole response of DC gain [a0], and poles [p1] and [p2] Hz *)
  let two_pole a0 p1 p2 =
    {
      Ac.freqs;
      response =
        Array.map
          (fun f ->
            let pole p = Complex.div Complex.one { Complex.re = 1.; im = f /. p } in
            Complex.mul { Complex.re = a0; im = 0. } (Complex.mul (pole p1) (pole p2)))
          freqs;
    }
  in
  let constant z = { Ac.freqs; response = Array.map (fun _ -> z) freqs } in
  let circuit_bodes =
    List.filter_map Fun.id
      [
        Tb.bode Ota.default_params;
        Tb.bode { Ota.default_params with Ota.w1 = 2. *. Ota.default_params.Ota.w1 };
        Tb.bode { Ota.default_params with Ota.l2 = 3. *. Ota.default_params.Ota.l2 };
      ]
  in
  let bodes =
    circuit_bodes
    @ [
        two_pole 1e3 1e3 1e7;
        two_pole 1e4 10. 1e5;
        two_pole 1.2 1e6 1e8;
        (* no unity crossing, a zero response (gain -inf), NaN *)
        two_pole 0.5 1e3 1e7;
        constant Complex.zero;
        constant { Complex.re = nan; im = 0. };
      ]
  in
  Alcotest.(check int) "circuit bodes" 3 (List.length circuit_bodes);
  List.iteri
    (fun k b ->
      match (three_pass b, Gtb.perf_of_bode conditions b) with
      | None, None -> ()
      | Some expect, Some got ->
          Array.iteri
            (fun i e ->
              Alcotest.(check int64)
                (Printf.sprintf "bode %d field %d" k i)
                (Int64.bits_of_float e)
                (Int64.bits_of_float (fields got).(i)))
            expect
      | _ -> Alcotest.failf "bode %d: outcome differs" k)
    bodes

let amp = { Filter.gain_db = 53.; rout = 2.5e6 }

let test_gm_of_amp () =
  check_float ~eps:1e-9 "gm" (10. ** (53. /. 20.) /. 2.5e6) (Filter.gm_of_amp amp)

let good_caps = { Filter.c1 = 26e-12; c2 = 13e-12; c3 = 0.2e-12 }

let test_filter_response_shape () =
  match Filter.response amp good_caps with
  | None -> Alcotest.fail "filter solve failed"
  | Some bode ->
      let mags = Measure.magnitudes_db bode in
      check_float ~eps:0.05 "unity dc gain" 0. mags.(0);
      (* low-pass: last point well below dc *)
      Alcotest.(check bool) "rolls off" true
        (mags.(Array.length mags - 1) < -40.)

let test_filter_check () =
  match Filter.response amp good_caps with
  | None -> Alcotest.fail "filter solve failed"
  | Some bode ->
      let c = Filter.check Filter.default_spec bode in
      Alcotest.(check bool) "good caps meet mask" true c.Filter.meets_spec;
      let strict = { Filter.default_spec with Filter.atten_db = 80. } in
      let c2 = Filter.check strict bode in
      Alcotest.(check bool) "strict mask fails" false c2.Filter.meets_spec;
      Alcotest.(check bool) "margin negative" true (c2.Filter.stopband_margin_db < 0.)

let test_filter_q_scales_with_c2_over_c1 () =
  (* higher C2/C1 -> higher Q -> peaking *)
  let peaky = { Filter.c1 = 10e-12; c2 = 40e-12; c3 = 0.2e-12 } in
  match Filter.response amp peaky with
  | None -> Alcotest.fail "filter solve failed"
  | Some bode ->
      let mags = Measure.magnitudes_db bode in
      let peak = Array.fold_left Float.max neg_infinity mags in
      Alcotest.(check bool) "peaking present" true (peak > 2.)

let test_filter_optimise_finds_spec () =
  let r = Filter.optimise ~population:30 ~generations:40 amp Filter.default_spec (Rng.create 23) in
  Alcotest.(check bool) "meets spec" true r.Filter.best_check.Filter.meets_spec;
  Alcotest.(check int) "budget honoured" (30 * 40) r.Filter.evaluations

let test_filter_transistor_realisation () =
  match Filter.response_transistor Ota.default_params good_caps with
  | None -> Alcotest.fail "transistor filter failed to bias"
  | Some bode ->
      let mags = Measure.magnitudes_db bode in
      (* a working unity-gain low-pass: dc near 0 dB and rolling off *)
      Alcotest.(check bool) "dc gain near unity" true (Float.abs mags.(0) < 0.5);
      Alcotest.(check bool) "rolls off" true (mags.(Array.length mags - 1) < -30.)

let suites =
  [
    ( "circuits.ota",
      [
        Alcotest.test_case "param roundtrip" `Quick test_param_roundtrip;
        Alcotest.test_case "table 1 ranges" `Quick test_param_ranges_match_table1;
        Alcotest.test_case "clamp" `Quick test_clamp_params;
        Alcotest.test_case "mirror factor" `Quick test_mirror_factor;
        Alcotest.test_case "bias point" `Quick test_ota_bias_point;
        Alcotest.test_case "no cutoff devices" `Quick test_ota_no_cutoff_devices;
      ] );
    ( "circuits.testbench",
      [
        Alcotest.test_case "evaluate default" `Quick test_evaluate_default;
        Alcotest.test_case "gain vs output L" `Quick test_longer_output_l_raises_gain;
        Alcotest.test_case "pm vs mirror factor" `Quick
          test_bigger_mirror_factor_lowers_pm;
        Alcotest.test_case "feasibility" `Quick test_feasibility_constraint;
        Alcotest.test_case "sampled evaluation" `Quick test_evaluate_sampled_differs;
        Alcotest.test_case "objectives order" `Quick test_objectives_order;
        Alcotest.test_case "perf_of_bode in one pass" `Quick
          test_perf_of_bode_one_pass;
      ] );
    ( "circuits.filter",
      [
        Alcotest.test_case "gm_of_amp" `Quick test_gm_of_amp;
        Alcotest.test_case "response shape" `Quick test_filter_response_shape;
        Alcotest.test_case "mask check" `Quick test_filter_check;
        Alcotest.test_case "q vs cap ratio" `Quick test_filter_q_scales_with_c2_over_c1;
        Alcotest.test_case "optimise finds spec" `Slow test_filter_optimise_finds_spec;
        Alcotest.test_case "transistor realisation" `Quick
          test_filter_transistor_realisation;
      ] );
  ]
