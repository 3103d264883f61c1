(* Tests for transient analysis, waveform sources, time-domain measurements
   and noise analysis. *)

module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Dcop = Yield_spice.Dcop
module Tran = Yield_spice.Tran
module Mt = Yield_spice.Measure_tran
module Noise = Yield_spice.Noise
module Mosfet = Yield_spice.Mosfet
module Vec = Yield_numeric.Vec

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

(* --- waveforms --- *)

let test_waveform_constant () =
  check_float "constant" 3.3 (Device.waveform_value Device.Constant ~dc:3.3 5.)

let test_waveform_pulse () =
  let w =
    Device.Pulse
      { v1 = 0.; v2 = 1.; delay = 1.; rise = 0.5; fall = 0.5; width = 2.; period = 0. }
  in
  let at t = Device.waveform_value w ~dc:0. t in
  check_float "before delay" 0. (at 0.5);
  check_float "mid rise" 0.5 (at 1.25);
  check_float "plateau" 1. (at 2.);
  check_float "mid fall" 0.5 (at 3.75);
  check_float "after" 0. (at 5.)

let test_waveform_pulse_periodic () =
  let w =
    Device.Pulse
      { v1 = 0.; v2 = 1.; delay = 0.; rise = 0.1; fall = 0.1; width = 0.4; period = 1. }
  in
  let at t = Device.waveform_value w ~dc:0. t in
  check_float "first period plateau" 1. (at 0.3);
  check_float "second period plateau" 1. (at 1.3);
  check_float "second period low" 0. (at 1.8)

let test_waveform_sine () =
  let w = Device.Sine { offset = 1.; amplitude = 2.; freq = 50.; phase_deg = 0. } in
  let at t = Device.waveform_value w ~dc:0. t in
  check_float ~eps:1e-9 "zero crossing" 1. (at 0.);
  check_float ~eps:1e-9 "quarter period" 3. (at (1. /. 200.));
  check_float ~eps:1e-6 "full period" 1. (at (1. /. 50.))

(* --- transient engine --- *)

let rc_circuit () =
  let c = Circuit.create () in
  let wave =
    Device.Pulse
      { v1 = 0.; v2 = 1.; delay = 1e-4; rise = 1e-6; fall = 1e-6; width = 1.; period = 0. }
  in
  Circuit.add_vsource c ~name:"V1" ~wave "in" "0" 0.;
  Circuit.add_resistor c ~name:"R1" "in" "out" 1000.;
  Circuit.add_capacitor c ~name:"C1" "out" "0" 1e-6;
  c

let test_tran_rc_charging () =
  let c = rc_circuit () in
  match Tran.run (Tran.options ~t_stop:8e-3 ~dt:2e-5 ()) c with
  | Error e -> Alcotest.fail (Tran.error_to_string e)
  | Ok r ->
      let v = Tran.voltage_by_name r c "out" in
      check_float "starts discharged" 0. v.(0);
      (* one tau after the step: 1e-4 + 1e-3 s is time point 55 *)
      check_float "time point 55" 1.1e-3 r.Tran.times.(55);
      check_float ~eps:0.01 "one tau" (1. -. exp (-1.)) v.(55);
      check_float ~eps:0.002 "fully charged" 1. (Mt.final_value ~values:v)

let test_tran_rc_analytic_rise () =
  let c = rc_circuit () in
  match Tran.run (Tran.options ~t_stop:8e-3 ~dt:2e-5 ()) c with
  | Error e -> Alcotest.fail (Tran.error_to_string e)
  | Ok r ->
      let v = Tran.voltage_by_name r c "out" in
      (match Mt.settling_time ~times:r.Tran.times ~values:v () with
      | Some t ->
          (* 1 % settling of a first-order response: delay + ln(100) tau *)
          check_float ~eps:0.05 "settling" (1e-4 +. (log 100. *. 1e-3)) t
      | None -> Alcotest.fail "no settling");
      check_float ~eps:0.02 "no overshoot" 0.
        (Mt.overshoot_pct ~times:r.Tran.times ~values:v)

let test_tran_sine_through () =
  (* a sine source across a resistive divider keeps its amplitude halved *)
  let c = Circuit.create () in
  let wave = Device.Sine { offset = 1.; amplitude = 1.; freq = 1e3; phase_deg = 0. } in
  Circuit.add_vsource c ~name:"V1" ~wave "in" "0" 1.;
  Circuit.add_resistor c ~name:"R1" "in" "out" 1e3;
  Circuit.add_resistor c ~name:"R2" "out" "0" 1e3;
  match Tran.run (Tran.options ~t_stop:2e-3 ~dt:5e-6 ()) c with
  | Error e -> Alcotest.fail (Tran.error_to_string e)
  | Ok r ->
      let v = Tran.voltage_by_name r c "out" in
      let expected t = 0.5 *. (1. +. sin (2. *. Float.pi *. 1e3 *. t)) in
      Array.iteri
        (fun i t -> check_float ~eps:1e-6 "sine tracks" (expected t) v.(i))
        r.Tran.times

let test_tran_mos_inverter_switches () =
  (* a resistor-loaded NMOS inverter driven by a pulse must swing *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
  let wave =
    Device.Pulse
      { v1 = 0.; v2 = 3.3; delay = 1e-7; rise = 1e-8; fall = 1e-8; width = 1e-6; period = 0. }
  in
  Circuit.add_vsource c ~name:"VIN" ~wave "g" "0" 0.;
  Circuit.add_mosfet c ~name:"M1" ~d:"out" ~g:"g" ~s:"0" ~b:"0"
    ~model:Yield_process.Tech.c35.Yield_process.Tech.nmos ~w:10e-6 ~l:0.35e-6;
  Circuit.add_resistor c ~name:"RL" "vdd" "out" 10e3;
  Circuit.add_capacitor c ~name:"CL" "out" "0" 0.5e-12;
  match Tran.run (Tran.options ~t_stop:1e-6 ~dt:1e-9 ()) c with
  | Error e -> Alcotest.fail (Tran.error_to_string e)
  | Ok r ->
      let v = Tran.voltage_by_name r c "out" in
      check_float ~eps:0.01 "starts high" 3.3 v.(0);
      Alcotest.(check bool) "pulls low" true (Mt.final_value ~values:v < 0.5)

let test_tran_energy_conservation_linear () =
  (* with no source the capacitor holds its DC charge *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" "in" "0" 2.;
  Circuit.add_resistor c ~name:"R1" "in" "out" 1e3;
  Circuit.add_capacitor c ~name:"C1" "out" "0" 1e-9;
  match Tran.run (Tran.options ~t_stop:1e-4 ~dt:1e-6 ()) c with
  | Error e -> Alcotest.fail (Tran.error_to_string e)
  | Ok r ->
      let v = Tran.voltage_by_name r c "out" in
      Array.iter (fun x -> check_float ~eps:1e-6 "steady" 2. x) v

(* the bits of the RC fixture's run, recorded before the transient engine
   shared the DC Newton loop; the OTA and Miller step responses are pinned
   in t_mna *)
let test_tran_rc_bits () =
  let c = rc_circuit () in
  match Tran.run (Tran.options ~t_stop:8e-3 ~dt:2e-5 ()) c with
  | Error e -> Alcotest.fail (Tran.error_to_string e)
  | Ok r ->
      Alcotest.(check string) "times and v(out)" "57bab2ecde14a4c4bb9f6370d294afe7"
        (T_mna.digest_floats [ r.Tran.times; Tran.voltage_by_name r c "out" ])

let test_tran_options_validation () =
  (match Tran.options ~t_stop:0. ~dt:1e-6 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero t_stop accepted");
  match Tran.options ~t_stop:1e-6 ~dt:1e-3 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dt > t_stop accepted"

(* --- measure_tran unit behaviour --- *)

let test_measure_tran_values () =
  let times = [| 0.; 1.; 2. |] and values = [| 0.; 2.; 2. |] in
  check_float "slew" 2. (Mt.slew_rate ~times ~values)

let test_measure_tran_overshoot () =
  let times = Array.init 101 (fun i -> float_of_int i /. 100.) in
  (* damped oscillation settling to 1 with a 1.3 peak *)
  let values =
    Array.map
      (fun t -> 1. -. (exp (-5. *. t) *. cos (20. *. t) *. 1.0) +. (0.3 *. exp (-20. *. t) *. sin (30. *. t)))
      times
  in
  let o = Mt.overshoot_pct ~times ~values in
  Alcotest.(check bool) "overshoot detected" true (o > 1.)

(* --- noise --- *)

let test_noise_resistor_psd () =
  let c = Circuit.create () in
  Circuit.add_resistor c ~name:"R1" "out" "0" 10e3;
  Circuit.add_capacitor c ~name:"C1" "out" "0" 1e-12;
  let op = match Dcop.solve c with Ok o -> o | Error _ -> Alcotest.fail "dc" in
  let pts =
    Noise.output_noise ~flicker:Noise.no_flicker c op
      ~out:(Circuit.node c "out") ~freqs:[| 1e3 |]
  in
  let expected = 4. *. 1.380649e-23 *. Noise.temperature *. 10e3 in
  check_float ~eps:1e-3 "4kTR" expected pts.(0).Noise.total_v2_per_hz

let test_noise_ktc () =
  let c = Circuit.create () in
  Circuit.add_resistor c ~name:"R1" "out" "0" 10e3;
  Circuit.add_capacitor c ~name:"C1" "out" "0" 1e-12;
  let op = match Dcop.solve c with Ok o -> o | Error _ -> Alcotest.fail "dc" in
  let freqs = Vec.logspace 1e3 1e12 300 in
  let pts =
    Noise.output_noise ~flicker:Noise.no_flicker c op
      ~out:(Circuit.node c "out") ~freqs
  in
  let pairs = Array.map (fun p -> (p.Noise.freq, p.Noise.total_v2_per_hz)) pts in
  let rms = Noise.integrate_rms pairs in
  check_float ~eps:0.01 "kT/C" (sqrt (1.380649e-23 *. Noise.temperature /. 1e-12)) rms

let test_noise_flicker_corner () =
  (* a MOS amplifier's flicker contribution dominates at low frequency and
     thermal at high frequency *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
  Circuit.add_vsource c ~name:"VIN" ~ac:1. "g" "0" 0.65;
  Circuit.add_mosfet c ~name:"M1" ~d:"out" ~g:"g" ~s:"0" ~b:"0"
    ~model:Yield_process.Tech.c35.Yield_process.Tech.nmos ~w:50e-6 ~l:1e-6;
  Circuit.add_resistor c ~name:"RL" "vdd" "out" 30e3;
  Circuit.nodeset c (Circuit.node c "out") 2.;
  let op = match Dcop.solve c with Ok o -> o | Error _ -> Alcotest.fail "dc" in
  let pts =
    Noise.output_noise c op ~out:(Circuit.node c "out") ~freqs:[| 10.; 1e7 |]
  in
  let flicker_share p =
    let f =
      List.fold_left
        (fun acc (co : Noise.contribution) ->
          match co.Noise.kind with
          | `Flicker -> acc +. co.Noise.psd_v2_per_hz
          | `Thermal -> acc)
        0. p.Noise.contributions
    in
    f /. p.Noise.total_v2_per_hz
  in
  Alcotest.(check bool) "flicker dominates at 10 Hz" true (flicker_share pts.(0) > 0.9);
  Alcotest.(check bool) "thermal dominates at 10 MHz" true (flicker_share pts.(1) < 0.1)

let test_noise_contributions_sorted () =
  let c = Circuit.create () in
  Circuit.add_resistor c ~name:"Rbig" "out" "0" 100e3;
  Circuit.add_resistor c ~name:"Rsmall" "out" "0" 1e3;
  let op = match Dcop.solve c with Ok o -> o | Error _ -> Alcotest.fail "dc" in
  let pts =
    Noise.output_noise ~flicker:Noise.no_flicker c op
      ~out:(Circuit.node c "out") ~freqs:[| 1e3 |]
  in
  match pts.(0).Noise.contributions with
  | first :: _ ->
      (* the small resistor injects more current noise; with equal transfer
         impedance it dominates the output *)
      Alcotest.(check string) "largest first" "Rsmall" first.Noise.device
  | [] -> Alcotest.fail "no contributions"

let suites =
  [
    ( "spice.waveform",
      [
        Alcotest.test_case "constant" `Quick test_waveform_constant;
        Alcotest.test_case "pulse" `Quick test_waveform_pulse;
        Alcotest.test_case "periodic pulse" `Quick test_waveform_pulse_periodic;
        Alcotest.test_case "sine" `Quick test_waveform_sine;
      ] );
    ( "spice.tran",
      [
        Alcotest.test_case "rc charging" `Quick test_tran_rc_charging;
        Alcotest.test_case "rc analytic rise/settle" `Quick test_tran_rc_analytic_rise;
        Alcotest.test_case "sine divider" `Quick test_tran_sine_through;
        Alcotest.test_case "mos inverter" `Quick test_tran_mos_inverter_switches;
        Alcotest.test_case "steady state" `Quick test_tran_energy_conservation_linear;
        Alcotest.test_case "rc bits" `Quick test_tran_rc_bits;
        Alcotest.test_case "options validation" `Quick test_tran_options_validation;
      ] );
    ( "spice.measure_tran",
      [
        Alcotest.test_case "values" `Quick test_measure_tran_values;
        Alcotest.test_case "overshoot" `Quick test_measure_tran_overshoot;
      ] );
    ( "spice.noise",
      [
        Alcotest.test_case "resistor psd" `Quick test_noise_resistor_psd;
        Alcotest.test_case "ktc" `Quick test_noise_ktc;
        Alcotest.test_case "flicker corner" `Quick test_noise_flicker_corner;
        Alcotest.test_case "contributions sorted" `Quick test_noise_contributions_sorted;
      ] );
  ]
