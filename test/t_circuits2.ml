(* Tests for the second-topology machinery (Miller OTA via the generic
   testbench), the DC sweep analysis, and cross-analysis consistency. *)

module Miller = Yield_circuits.Miller
module Mtb = Yield_circuits.Miller_testbench
module Gtb = Yield_circuits.Testbench
module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Dcop = Yield_spice.Dcop
module Dcsweep = Yield_spice.Dcsweep
module Ac = Yield_spice.Ac
module Tran = Yield_spice.Tran

module Mosfet = Yield_spice.Mosfet
module Rng = Yield_stats.Rng
module Variation = Yield_process.Variation

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let miller_conditions = Mtb.conditions

(* --- miller --- *)

let test_miller_two_stage_gain () =
  match Mtb.evaluate ~conditions:miller_conditions Miller.default_params with
  | None -> Alcotest.fail "miller evaluation failed"
  | Some p ->
      (* two gain stages: well above anything the single-stage OTA reaches *)
      Alcotest.(check bool) "two-stage gain" true (p.Gtb.gain_db > 70.);
      Alcotest.(check bool) "finite pm" true (Float.is_finite p.Gtb.phase_margin_deg)

let test_miller_bias_point () =
  let c, _ = Mtb.build ~conditions:miller_conditions Miller.default_params in
  match Dcop.solve c with
  | Error e -> Alcotest.failf "miller dcop: %s" (Dcop.error_to_string e)
  | Ok op ->
      let m8 = Dcop.mos_op op "x1.M8" in
      check_float ~eps:0.02 "bias current" Miller.bias_current m8.Mosfet.ids;
      (* output near the common mode thanks to the DC loop *)
      check_float ~eps:0.05 "out biased" 1.65 (Dcop.voltage_by_name op c "out");
      (* the second stage carries real current *)
      let m6 = Dcop.mos_op op "x1.M6" in
      Alcotest.(check bool) "stage-2 current flows" true (m6.Mosfet.ids > 1e-6)

let test_miller_compensation_tradeoff () =
  (* a larger output sink (higher second-pole frequency) buys phase margin *)
  let base =
    Mtb.evaluate ~conditions:miller_conditions Miller.default_params
  in
  let big_sink =
    Mtb.evaluate ~conditions:miller_conditions
      { Miller.default_params with Miller.w3 = 60e-6; l3 = 0.35e-6 }
  in
  match (base, big_sink) with
  | Some a, Some b ->
      Alcotest.(check bool) "pm improves with sink gm" true
        (b.Gtb.phase_margin_deg > a.Gtb.phase_margin_deg +. 5.)
  | _ -> Alcotest.fail "evaluation failed"

let test_miller_mc_sampling () =
  let rng = Rng.create 3 in
  match
    Mtb.evaluate_sampled ~conditions:miller_conditions
      ~spec:Variation.default_spec ~rng Miller.default_params
  with
  | None -> Alcotest.fail "sampled evaluation failed"
  | Some p ->
      Alcotest.(check bool) "gain close to nominal" true
        (Float.abs (p.Gtb.gain_db -. 87.5) < 5.)

let test_generic_testbench_consistency () =
  (* Ota_testbench is Testbench.Make(Ota): both paths give identical
     results *)
  let module Fresh = Yield_circuits.Testbench.Make (Ota) in
  let a = Tb.evaluate Ota.default_params in
  let b = Fresh.evaluate Ota.default_params in
  match (a, b) with
  | Some a, Some b -> check_float "same gain" a.Tb.gain_db b.Gtb.gain_db
  | _ -> Alcotest.fail "evaluation failed"

(* --- dc sweep --- *)

let divider () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VIN" "in" "0" 0.;
  Circuit.add_resistor c ~name:"R1" "in" "out" 1000.;
  Circuit.add_resistor c ~name:"R2" "out" "0" 1000.;
  c

let test_sweep_linear () =
  let c = divider () in
  let values = Yield_numeric.Vec.linspace (-2.) 2. 21 in
  match Dcsweep.run c ~source:"VIN" ~values with
  | Error e -> Alcotest.fail (Dcop.error_to_string e)
  | Ok s ->
      let out = Dcsweep.voltage_by_name s c "out" in
      Array.iteri
        (fun i _ -> check_float ~eps:1e-9 "half input" (values.(i) /. 2.) out.(i))
        values

let test_sweep_crossing_and_range () =
  let sweep = [| 0.; 1.; 2.; 3. |] and output = [| -2.; -1.; 1.; 3. |] in
  (match Dcsweep.crossing_input ~sweep ~output ~level:0. with
  | Some x -> check_float "zero crossing" 1.5 x
  | None -> Alcotest.fail "crossing not found");
  let lo, hi = Dcsweep.output_range output in
  check_float "lo" (-2.) lo;
  check_float "hi" 3. hi

let test_sweep_rejects_non_source () =
  let c = divider () in
  match Dcsweep.run c ~source:"R1" ~values:[| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "swept a resistor"

let test_sweep_ota_transfer_curve () =
  (* open-loop OTA comparator-style transfer: sweep the non-inverting input
     with the inverting input held at vcm; the output must swing and cross
     vcm near zero differential input *)
  let c = Circuit.create () in
  let tech = Yield_process.Tech.c35 in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" tech.Yield_process.Tech.vdd;
  Circuit.add_vsource c ~name:"VREF" "vm" "0" 1.65;
  Circuit.add_vsource c ~name:"VIN" "vp" "0" 1.65;
  Ota.add c ~prefix:"x1." ~tech ~params:Ota.default_params ~inp:"vm" ~inn:"vp"
    ~out:"out" ~vdd:"vdd" ~vss:"0";
  Circuit.nodeset c (Circuit.node c "out") 1.65;
  let values = Yield_numeric.Vec.linspace 1.55 1.75 41 in
  match Dcsweep.run c ~source:"VIN" ~values with
  | Error e -> Alcotest.fail (Dcop.error_to_string e)
  | Ok s ->
      let out = Dcsweep.voltage_by_name s c "out" in
      let lo, hi = Dcsweep.output_range out in
      Alcotest.(check bool) "output swings" true (hi -. lo > 2.);
      (match Dcsweep.crossing_input ~sweep:values ~output:out ~level:1.65 with
      | Some x ->
          (* offset within a few millivolts of zero differential *)
          Alcotest.(check bool) "offset small" true (Float.abs (x -. 1.65) < 0.01)
      | None -> Alcotest.fail "no crossing");
      (* monotone rising transfer (non-inverting input swept) *)
      let monotone = ref true in
      for i = 1 to Array.length out - 1 do
        if out.(i) < out.(i - 1) -. 1e-6 then monotone := false
      done;
      Alcotest.(check bool) "monotone" true !monotone

(* --- cross-analysis consistency: transient sine vs AC magnitude --- *)

let test_tran_matches_ac () =
  (* drive an RC lowpass with a sine at its corner frequency: the transient
     steady-state amplitude must match |H| from the AC analysis *)
  let r = 1e3 and cap = 1e-7 in
  let fc = 1. /. (2. *. Float.pi *. r *. cap) in
  let build ac wave =
    let c = Circuit.create () in
    Circuit.add_vsource c ~name:"VIN" ~ac ?wave "in" "0" 0.;
    Circuit.add_resistor c ~name:"R1" "in" "out" r;
    Circuit.add_capacitor c ~name:"C1" "out" "0" cap;
    c
  in
  (* AC magnitude at fc *)
  let c_ac = build 1. None in
  let op = match Dcop.solve c_ac with Ok o -> o | Error _ -> Alcotest.fail "dc" in
  let bode = Ac.transfer_by_name c_ac op ~out:"out" ~freqs:[| fc |] in
  let mag_ac = Complex.norm bode.Ac.response.(0) in
  (* transient steady state: simulate 12 periods, measure the amplitude over
     the last four *)
  let wave = Device.Sine { offset = 0.; amplitude = 1.; freq = fc; phase_deg = 0. } in
  let t_stop = 12. /. fc in
  let c_tr = build 0. (Some wave) in
  match Tran.run (Tran.options ~t_stop ~dt:(1. /. fc /. 200.) ()) c_tr with
  | Error e -> Alcotest.fail (Tran.error_to_string e)
  | Ok result ->
      let v = Tran.voltage_by_name result c_tr "out" in
      let n = Array.length v in
      let tail = Array.sub v (n - (n / 3)) (n / 3) in
      let amplitude =
        (Array.fold_left Float.max neg_infinity tail
        -. Array.fold_left Float.min infinity tail)
        /. 2.
      in
      check_float ~eps:0.01 "transient amplitude = |H|" mag_ac amplitude

let suites =
  [
    ( "circuits.miller",
      [
        Alcotest.test_case "two-stage gain" `Quick test_miller_two_stage_gain;
        Alcotest.test_case "bias point" `Quick test_miller_bias_point;
        Alcotest.test_case "compensation tradeoff" `Quick
          test_miller_compensation_tradeoff;
        Alcotest.test_case "mc sampling" `Quick test_miller_mc_sampling;
        Alcotest.test_case "generic testbench" `Quick
          test_generic_testbench_consistency;
      ] );
    ( "spice.dcsweep",
      [
        Alcotest.test_case "linear divider" `Quick test_sweep_linear;
        Alcotest.test_case "crossing and range" `Quick test_sweep_crossing_and_range;
        Alcotest.test_case "rejects non-source" `Quick test_sweep_rejects_non_source;
        Alcotest.test_case "ota transfer curve" `Quick test_sweep_ota_transfer_curve;
      ] );
    ( "spice.consistency",
      [ Alcotest.test_case "transient sine vs AC" `Quick test_tran_matches_ac ] );
  ]
