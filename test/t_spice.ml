(* Tests for the yield_spice simulator: MOS model physics, DC operating
   points on known circuits, AC transfer functions against closed-form
   answers, measurement extraction, and netlist round-trips. *)

module Mosfet = Yield_spice.Mosfet
module Circuit = Yield_spice.Circuit
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Measure = Yield_spice.Measure
module Netlist = Yield_spice.Netlist

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let nmos : Mosfet.model =
  {
    polarity = Mosfet.Nmos;
    vth0 = 0.50;
    kp = 170e-6;
    gamma = 0.58;
    phi = 0.7;
    lambda0 = 0.04;
    n_slope = 1.3;
    cox = 4.54e-3;
    cgso = 1.2e-10;
    cgdo = 1.2e-10;
    cj = 9.4e-4;
    cjsw = 2.5e-10;
    ext = 8.5e-7;
  }

let solve_ok circuit =
  match Dcop.solve circuit with
  | Ok op -> op
  | Error e -> Alcotest.failf "dcop failed: %s" (Dcop.error_to_string e)

(* --- MOS model --- *)

let test_mos_cutoff () =
  let op = Mosfet.eval nmos ~w:10e-6 ~l:1e-6 ~vgs:0. ~vds:1. ~vbs:0. in
  Alcotest.(check bool) "tiny current" true (op.Mosfet.ids < 1e-9);
  Alcotest.(check string) "region" "cutoff"
    (Mosfet.region_to_string op.Mosfet.region)

let test_mos_square_law () =
  (* strong inversion, saturation: ids ~ beta/(2n) (vgs-vth)^2 *)
  let w = 20e-6 and l = 2e-6 in
  let vgs = 1.5 in
  let op = Mosfet.eval nmos ~w ~l ~vgs ~vds:3. ~vbs:0. in
  let beta = nmos.Mosfet.kp *. w /. l in
  let vov = vgs -. nmos.Mosfet.vth0 in
  let expected =
    beta *. vov *. vov /. (2. *. nmos.Mosfet.n_slope)
    *. (1. +. (nmos.Mosfet.lambda0 /. 2. *. 3.))
  in
  check_float ~eps:0.05 "square law" expected op.Mosfet.ids;
  Alcotest.(check string) "region" "saturation"
    (Mosfet.region_to_string op.Mosfet.region)

let test_mos_gm_matches_numeric () =
  let w = 20e-6 and l = 1e-6 in
  let dv = 1e-6 in
  let at vgs vds vbs = (Mosfet.eval nmos ~w ~l ~vgs ~vds ~vbs).Mosfet.ids in
  let op = Mosfet.eval nmos ~w ~l ~vgs:1.2 ~vds:1.8 ~vbs:(-0.3) in
  let gm_num = (at (1.2 +. dv) 1.8 (-0.3) -. at (1.2 -. dv) 1.8 (-0.3)) /. (2. *. dv) in
  let gds_num = (at 1.2 (1.8 +. dv) (-0.3) -. at 1.2 (1.8 -. dv) (-0.3)) /. (2. *. dv) in
  let gmb_num = (at 1.2 1.8 (-0.3 +. dv) -. at 1.2 1.8 (-0.3 -. dv)) /. (2. *. dv) in
  check_float ~eps:1e-4 "gm" gm_num op.Mosfet.gm;
  check_float ~eps:1e-4 "gds" gds_num op.Mosfet.gds;
  check_float ~eps:1e-4 "gmb" gmb_num op.Mosfet.gmb

let test_mos_continuity_weak_strong () =
  (* current must be smooth and monotone in vgs through the threshold *)
  let prev = ref 0. in
  let ok = ref true in
  for i = 0 to 200 do
    let vgs = 0.2 +. (float_of_int i /. 200. *. 0.8) in
    let op = Mosfet.eval nmos ~w:10e-6 ~l:1e-6 ~vgs ~vds:1.5 ~vbs:0. in
    if op.Mosfet.ids < !prev then ok := false;
    prev := op.Mosfet.ids
  done;
  Alcotest.(check bool) "monotone in vgs" true !ok

let test_mos_reverse_symmetry () =
  (* I(vgs, vds) = -I(vgs - vds, -vds) when source and drain exchange *)
  let fwd = Mosfet.eval nmos ~w:10e-6 ~l:1e-6 ~vgs:1.4 ~vds:0.2 ~vbs:0. in
  let rev = Mosfet.eval nmos ~w:10e-6 ~l:1e-6 ~vgs:1.2 ~vds:(-0.2) ~vbs:(-0.2) in
  check_float ~eps:1e-6 "reversal" (-.fwd.Mosfet.ids) rev.Mosfet.ids

let test_mos_body_effect_raises_vth () =
  let a = Mosfet.eval nmos ~w:10e-6 ~l:1e-6 ~vgs:1. ~vds:2. ~vbs:0. in
  let b = Mosfet.eval nmos ~w:10e-6 ~l:1e-6 ~vgs:1. ~vds:2. ~vbs:(-1.) in
  Alcotest.(check bool) "vth increases" true (b.Mosfet.vth > a.Mosfet.vth);
  Alcotest.(check bool) "current drops" true (b.Mosfet.ids < a.Mosfet.ids)

let test_mos_longer_l_lower_lambda () =
  let short = Mosfet.eval nmos ~w:10e-6 ~l:0.35e-6 ~vgs:1.5 ~vds:2. ~vbs:0. in
  let long_ = Mosfet.eval nmos ~w:10e-6 ~l:3.5e-6 ~vgs:1.5 ~vds:2. ~vbs:0. in
  let ro_rel_short = short.Mosfet.gds /. short.Mosfet.ids in
  let ro_rel_long = long_.Mosfet.gds /. long_.Mosfet.ids in
  Alcotest.(check bool) "long channel has relatively lower gds" true
    (ro_rel_long < ro_rel_short)

let test_mos_bad_geometry () =
  match Mosfet.eval nmos ~w:0. ~l:1e-6 ~vgs:1. ~vds:1. ~vbs:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* --- DC analysis --- *)

let test_dc_divider () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" "in" "0" 10.;
  Circuit.add_resistor c ~name:"R1" "in" "mid" 1000.;
  Circuit.add_resistor c ~name:"R2" "mid" "0" 3000.;
  let op = solve_ok c in
  check_float ~eps:1e-9 "divider" 7.5 (Dcop.voltage_by_name op c "mid");
  (* branch current through V1: 10V over 4k = 2.5 mA leaving + terminal,
     so the MNA branch current (into the + terminal) is -2.5 mA *)
  check_float ~eps:1e-9 "source current" (-0.0025) (Dcop.branch_current op "V1")

let test_dc_isource () =
  let c = Circuit.create () in
  Circuit.add_isource c ~name:"I1" "0" "n" 1e-3;
  Circuit.add_resistor c ~name:"R1" "n" "0" 2000.;
  let op = solve_ok c in
  check_float ~eps:1e-6 "ir drop" 2. (Dcop.voltage_by_name op c "n")

let test_dc_vccs () =
  (* vccs driving a resistor: v_out = -gm * v_in * r *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"Vin" "in" "0" 0.5;
  Circuit.add_vccs c ~name:"G1" ~out_p:"out" ~out_n:"0" ~in_p:"in" ~in_n:"0" 2e-3;
  Circuit.add_resistor c ~name:"RL" "out" "0" 10_000.;
  let op = solve_ok c in
  check_float ~eps:1e-6 "vccs gain" (-10.) (Dcop.voltage_by_name op c "out")

let test_dc_diode_connected_mos () =
  (* current-mirror reference: vgs settles so that ids = ibias *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
  Circuit.add_isource c ~name:"IB" "vdd" "ng" 20e-6;
  Circuit.add_mosfet c ~name:"M1" ~d:"ng" ~g:"ng" ~s:"0" ~b:"0" ~model:nmos
    ~w:20e-6 ~l:1e-6;
  Circuit.nodeset c (Circuit.node c "ng") 0.8;
  let op = solve_ok c in
  let m = Dcop.mos_op op "M1" in
  check_float ~eps:1e-4 "ids = ibias" 20e-6 m.Mosfet.ids;
  let vg = Dcop.voltage_by_name op c "ng" in
  Alcotest.(check bool) "gate above vth" true (vg > 0.5 && vg < 1.2)

let test_dc_nmos_mirror_ratio () =
  (* 1:2 mirror doubles the current *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
  Circuit.add_isource c ~name:"IB" "vdd" "ng" 10e-6;
  Circuit.add_mosfet c ~name:"M1" ~d:"ng" ~g:"ng" ~s:"0" ~b:"0" ~model:nmos
    ~w:10e-6 ~l:2e-6;
  Circuit.add_mosfet c ~name:"M2" ~d:"out" ~g:"ng" ~s:"0" ~b:"0" ~model:nmos
    ~w:20e-6 ~l:2e-6;
  Circuit.add_resistor c ~name:"RL" "vdd" "out" 20_000.;
  let op = solve_ok c in
  let m2 = Dcop.mos_op op "M2" in
  check_float ~eps:0.05 "mirror gain 2x" 20e-6 m2.Mosfet.ids

let pmos : Mosfet.model =
  {
    nmos with
    polarity = Mosfet.Pmos;
    vth0 = 0.65;
    kp = 58e-6;
    lambda0 = 0.05;
  }

let test_dc_pmos_mirror () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
  Circuit.add_isource c ~name:"IB" "ng" "0" 10e-6;
  Circuit.add_mosfet c ~name:"M1" ~d:"ng" ~g:"ng" ~s:"vdd" ~b:"vdd" ~model:pmos
    ~w:20e-6 ~l:1e-6;
  Circuit.add_mosfet c ~name:"M2" ~d:"out" ~g:"ng" ~s:"vdd" ~b:"vdd" ~model:pmos
    ~w:20e-6 ~l:1e-6;
  Circuit.add_resistor c ~name:"RL" "out" "0" 50_000.;
  let op = solve_ok c in
  let m2 = Dcop.mos_op op "M2" in
  check_float ~eps:0.05 "pmos mirror copies" 10e-6 m2.Mosfet.ids;
  let vout = Dcop.voltage_by_name op c "out" in
  check_float ~eps:0.05 "output voltage" 0.5 vout

let test_dc_no_convergence_reported () =
  (* a floating voltage-source loop is singular *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" "a" "b" 1.;
  Circuit.add_vsource c ~name:"V2" "a" "b" 2.;
  match Dcop.solve c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected failure on inconsistent sources"

(* --- AC analysis --- *)

let test_ac_rc_lowpass () =
  let r = 1000. and cap = 1e-6 in
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"Vin" ~ac:1. "in" "0" 0.;
  Circuit.add_resistor c ~name:"R1" "in" "out" r;
  Circuit.add_capacitor c ~name:"C1" "out" "0" cap;
  let op = solve_ok c in
  let fc = 1. /. (2. *. Float.pi *. r *. cap) in
  let freqs = [| fc /. 100.; fc; fc *. 100. |] in
  let bode = Ac.transfer_by_name c op ~out:"out" ~freqs in
  let mags = Measure.magnitudes_db bode in
  check_float ~eps:1e-3 "passband" 0. mags.(0);
  check_float ~eps:1e-3 "corner -3dB" (-10. *. log10 2.) mags.(1);
  check_float ~eps:0.01 "stopband -40dB" (-40.) mags.(2);
  let ph = Measure.phases_deg_unwrapped bode in
  check_float ~eps:0.01 "corner phase -45" (-45.) ph.(1)

(* The stop rule's answers are promises: after point k it says how many
   more points it needs, and the sweep may factor two promised points
   together.  A rule that takes a promised point back makes the transfer
   raise Invalid_argument, counting nothing, instead of dropping a point
   it factored. *)
let test_ac_stop_promises () =
  let module Metrics = Yield_obs.Metrics in
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"Vin" ~ac:1. "in" "0" 0.;
  Circuit.add_resistor c ~name:"R1" "in" "out" 1000.;
  Circuit.add_capacitor c ~name:"C1" "out" "0" 1e-6;
  let op = solve_ok c in
  let freqs = Ac.default_freqs ~f_lo:1. ~f_hi:1e6 () in
  let points = Metrics.counter "ac.points" and paired = Metrics.counter "ac.paired" in
  let run answers =
    let stop _ k = Option.value (List.nth_opt answers k) ~default:0 in
    Ac.transfer_by_name ~stop c op ~out:"out" ~freqs
  in
  let full = Ac.transfer_by_name c op ~out:"out" ~freqs in
  List.iter
    (fun (what, answers, swept, pairs) ->
      let p = Metrics.value points and q = Metrics.value paired in
      let b = run answers in
      Alcotest.(check int) (what ^ ": points") swept (Array.length b.Ac.response);
      Alcotest.(check int) (what ^ ": ac.points") swept (Metrics.value points - p);
      Alcotest.(check int) (what ^ ": ac.paired") pairs (Metrics.value paired - q);
      Alcotest.(check bool) (what ^ ": the full sweep's prefix") true
        (b.Ac.response = Array.sub full.Ac.response 0 swept))
    [
      ("stop at once", [ 0 ], 1, 0);
      ("2, 1, 0", [ 2; 1; 0 ], 3, 2);
      ("3, 2, 1, 0", [ 3; 2; 1; 0 ], 4, 2);
      ("1, 1, 0", [ 1; 1; 0 ], 3, 0);
      ( "past the end",
        List.map (fun _ -> max_int) (Array.to_list freqs),
        Array.length freqs,
        2 * ((Array.length freqs - 1) / 2) );
    ];
  List.iter
    (fun (what, answers) ->
      let p = Metrics.value points and q = Metrics.value paired in
      (match run answers with
      | _ -> Alcotest.failf "%s: the transfer returned" what
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) (what ^ ": ac.points") p (Metrics.value points);
      Alcotest.(check int) (what ^ ": ac.paired") q (Metrics.value paired))
    [
      ("a paired point dropped", [ 2; 0 ]);
      ("a negative answer", [ -1 ]);
      ("5 promised, point 2 answers 0", [ 5; 4; 0 ]);
      ("2 promised, point 1 answers 0", [ 1; 2; 0 ]);
    ]

let test_ac_common_source_gain () =
  (* common-source stage with ideal current-source load resistance:
     |A| = gm * (RL || ro) at low frequency *)
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
  Circuit.add_vsource c ~name:"Vin" ~ac:1. "g" "0" 0.65;
  Circuit.add_mosfet c ~name:"M1" ~d:"out" ~g:"g" ~s:"0" ~b:"0" ~model:nmos
    ~w:50e-6 ~l:1e-6;
  Circuit.add_resistor c ~name:"RL" "vdd" "out" 30_000.;
  Circuit.nodeset c (Circuit.node c "out") 2.;
  let op = solve_ok c in
  let m = Dcop.mos_op op "M1" in
  let expected =
    m.Mosfet.gm *. (1. /. ((1. /. 30_000.) +. m.Mosfet.gds))
  in
  let bode = Ac.transfer_by_name c op ~out:"out" ~freqs:[| 10. |] in
  let gain = Complex.norm bode.Ac.response.(0) in
  check_float ~eps:1e-3 "cs gain" expected gain;
  (* inverting stage: phase near 180 *)
  let ph = Measure.phase_deg bode.Ac.response.(0) in
  Alcotest.(check bool) "inverting" true (Float.abs (Float.abs ph -. 180.) < 1.)

let test_measure_crossing () =
  let xs = [| 1.; 10.; 100. |] and ys = [| 20.; 0.; -20. |] in
  (match Measure.crossing ~xs ~ys ~level:10. () with
  | Some x -> check_float ~eps:1e-6 "midpoint crossing" (sqrt 10.) x
  | None -> Alcotest.fail "crossing not found");
  match Measure.crossing ~xs ~ys ~level:30. () with
  | Some _ -> Alcotest.fail "no crossing expected"
  | None -> ()

let test_measure_single_pole_pm () =
  (* synthetic single-pole response: H = A / (1 + jf/fp); with A = 1000 and
     fp = 1 kHz, unity at ~1 MHz and phase margin ~90 degrees *)
  let a = 1000. and fp = 1e3 in
  let freqs = Ac.default_freqs ~per_decade:20 ~f_lo:1. ~f_hi:1e8 () in
  let response =
    Array.map
      (fun f ->
        Complex.div { Complex.re = a; im = 0. }
          { Complex.re = 1.; im = f /. fp })
      freqs
  in
  let bode = { Ac.freqs; response } in
  check_float ~eps:1e-3 "dc gain 60dB" 60. (Measure.dc_gain_db bode);
  (match Measure.unity_gain_freq bode with
  | Some fu -> check_float ~eps:0.01 "unity at a*fp" (a *. fp) fu
  | None -> Alcotest.fail "no unity crossing");
  (match Measure.phase_margin_deg bode with
  | Some pm -> check_float ~eps:0.02 "pm ~90" 90.06 pm
  | None -> Alcotest.fail "no phase margin");
  match Measure.f3db bode with
  | Some f3 -> check_float ~eps:0.02 "f3db ~ fp" fp f3
  | None -> Alcotest.fail "no f3db"

let test_measure_two_pole_pm () =
  (* two-pole response: pm = 180 - atan(fu/p1) - atan(fu/p2) *)
  let a = 100. and p1 = 1e3 and p2 = 1e6 in
  let freqs = Ac.default_freqs ~per_decade:40 ~f_lo:10. ~f_hi:1e9 () in
  let h f =
    Complex.div { Complex.re = a; im = 0. }
      (Complex.mul
         { Complex.re = 1.; im = f /. p1 }
         { Complex.re = 1.; im = f /. p2 })
  in
  let bode = { Ac.freqs; response = Array.map h freqs } in
  match (Measure.unity_gain_freq bode, Measure.phase_margin_deg bode) with
  | Some fu, Some pm ->
      let expected =
        180. -. (atan (fu /. p1) *. 180. /. Float.pi)
        -. (atan (fu /. p2) *. 180. /. Float.pi)
      in
      check_float ~eps:0.02 "two-pole pm" expected pm
  | _ -> Alcotest.fail "missing crossing"

(* --- netlist --- *)

let test_parse_value_suffixes () =
  check_float "k" 10_000. (Netlist.parse_value "10k");
  check_float "meg" 2.2e6 (Netlist.parse_value "2.2meg");
  check_float "u" 3.5e-6 (Netlist.parse_value "3.5u");
  check_float "p" 5e-12 (Netlist.parse_value "5p");
  check_float "plain" 42. (Netlist.parse_value "42");
  check_float "negative" (-1.5e-3) (Netlist.parse_value "-1.5m")

let sample_netlist =
  {|* sample
.model nm nmos vth0=0.5 kp=170u lambda0=0.04
VDD vdd 0 3.3
Vin g 0 0.65 ac=1
M1 out g 0 0 nm w=50u l=1u
RL vdd out 30k
CL out 0 1p
.nodeset v(out)=2
.end|}

let test_netlist_parse_and_solve () =
  let c = Netlist.parse sample_netlist in
  let op = solve_ok c in
  let m = Dcop.mos_op op "M1" in
  Alcotest.(check string) "region" "saturation"
    (Mosfet.region_to_string m.Mosfet.region)

let test_netlist_roundtrip () =
  let c = Netlist.parse sample_netlist in
  let text = Netlist.to_string c in
  let c2 = Netlist.parse text in
  let op1 = solve_ok c and op2 = solve_ok c2 in
  check_float ~eps:1e-9 "same out voltage"
    (Dcop.voltage_by_name op1 c "out")
    (Dcop.voltage_by_name op2 c2 "out")

let test_netlist_roundtrip_flattened () =
  (* the OTA testbench contains flattened device names ("x1.M1") that do not
     start with their element letter; the printer must still emit a
     reparseable netlist *)
  let c, _ =
    Yield_circuits.Ota_testbench.build Yield_circuits.Ota.default_params
  in
  let text = Netlist.to_string c in
  let c2 = Netlist.parse text in
  let op1 = solve_ok c and op2 = solve_ok c2 in
  check_float ~eps:1e-6 "same out voltage"
    (Dcop.voltage_by_name op1 c "out")
    (Dcop.voltage_by_name op2 c2 "out");
  check_float ~eps:1e-6 "same internal node"
    (Dcop.voltage_by_name op1 c "x1.n3")
    (Dcop.voltage_by_name op2 c2 "x1.n3")

let test_netlist_errors () =
  (match Netlist.parse "M1 d g s b missing w=1u l=1u" with
  | exception Netlist.Parse_error
      { span = { Yield_spice.Netlist_ast.start_line = 1; _ }; _ } -> ()
  | _ -> Alcotest.fail "expected parse error for unknown model");
  match Netlist.parse "Q1 a b c" with
  | exception Netlist.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error for unknown card"

let subckt_netlist =
  {|* two identical voltage dividers as a subcircuit
.subckt div in out
Rtop in out 1k
Rbot out 0 1k
Cint out mid 1p
Rmid mid 0 1meg
.ends
VIN a 0 4
X1 a b div
X2 b c div
.end|}

let test_netlist_subckt_expansion () =
  let c = Netlist.parse subckt_netlist in
  (* each instance contributes three devices with prefixed names *)
  (match Circuit.find_device c "X1.Rtop" with
  | Yield_spice.Device.Resistor { ohms; _ } -> check_float "ohms" 1000. ohms
  | _ -> Alcotest.fail "X1.Rtop wrong kind");
  (match Circuit.find_device c "X2.Rbot" with
  | Yield_spice.Device.Resistor _ -> ()
  | _ -> Alcotest.fail "X2.Rbot missing");
  let op = solve_ok c in
  (* divider of divider: b = a * (Rbot || (chain)) ... with the second
     divider loading the first: V(b) = 4 * R_eff/(1k + R_eff) where
     R_eff = 1k || 2k = 2/3 k -> V(b) = 4 * (2/3)/(5/3) = 1.6; V(c) = 0.8 *)
  check_float ~eps:1e-6 "loaded divider" 1.6 (Dcop.voltage_by_name op c "b");
  check_float ~eps:1e-6 "second stage" 0.8 (Dcop.voltage_by_name op c "c");
  (* internal nodes are instance-scoped and resolvable; X1.mid hangs behind
     a capacitor, so its DC value is pulled to ground by Rmid *)
  check_float ~eps:1e-6 "x1 internal dc" 0. (Dcop.voltage_by_name op c "X1.mid")

let test_netlist_subckt_errors () =
  (match Netlist.parse ".subckt a in\nR1 in 0 1k\n" with
  | exception Netlist.Parse_error _ -> ()
  | _ -> Alcotest.fail "unterminated subckt accepted");
  (match Netlist.parse "X1 a b nosuch\n" with
  | exception Netlist.Parse_error _ -> ()
  | _ -> Alcotest.fail "unknown subckt accepted");
  match Netlist.parse ".subckt d in out\nR1 in out 1\n.ends\nX1 a d\n" with
  | exception Netlist.Parse_error _ -> ()
  | _ -> Alcotest.fail "port count mismatch accepted"

let test_netlist_analysis_cards () =
  let text =
    "VIN in 0 0 ac=1\nR1 in out 1k\nC1 out 0 1u\n.op\n.ac dec 10 1 1meg out\n\
     .tran 1u 100u out\n.dc VIN 0 1 0.1 out\n.end\n"
  in
  let _, analyses =
    Yield_spice.Netlist_elab.elaborate (Yield_spice.Netlist_parser.parse text)
  in
  (match List.map fst analyses with
  | [ Netlist.Op; Netlist.Ac_analysis ac; Netlist.Tran_analysis tr;
      Netlist.Dc_analysis dc ] ->
      Alcotest.(check int) "per decade" 10 ac.per_decade;
      check_float "f_hi" 1e6 ac.f_hi;
      Alcotest.(check string) "ac out" "out" ac.out;
      check_float "dt" 1e-6 tr.dt;
      Alcotest.(check string) "dc source" "VIN" dc.source;
      check_float "dc step" 0.1 dc.step
  | _ -> Alcotest.fail "analyses misparsed");
  (* parse ignores them *)
  let c = Netlist.parse text in
  Alcotest.(check int) "devices" 3 (Array.length (Circuit.devices c));
  (* malformed card rejected *)
  match Netlist.parse ".ac dec 10 1\n" with
  | exception Netlist.Parse_error _ -> ()
  | _ -> Alcotest.fail "malformed .ac accepted"

(* --- solver invariants --- *)

(* KCL: at the converged operating point of a random resistive network, the
   net current into every node is (numerically) zero. *)
let prop_dc_kcl_residual =
  QCheck.Test.make ~count:60 ~name:"dc solution satisfies KCL on random networks"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n_nodes = 3 + Random.State.int st 5 in
      let node i = if i = 0 then "0" else Printf.sprintf "n%d" i in
      let c = Circuit.create () in
      Circuit.add_vsource c ~name:"V1" "n1" "0"
        (Random.State.float st 10. -. 5.);
      (* a random connected resistor mesh *)
      let idx = ref 0 in
      for i = 1 to n_nodes - 1 do
        (* chain guaranteeing connectivity *)
        incr idx;
        Circuit.add_resistor c
          ~name:(Printf.sprintf "Rc%d" !idx)
          (node i)
          (node (i - 1))
          (100. +. Random.State.float st 10_000.)
      done;
      for _ = 1 to n_nodes do
        let a = Random.State.int st n_nodes and b = Random.State.int st n_nodes in
        if a <> b then begin
          incr idx;
          Circuit.add_resistor c
            ~name:(Printf.sprintf "Rx%d" !idx)
            (node a) (node b)
            (100. +. Random.State.float st 10_000.)
        end
      done;
      match Dcop.solve c with
      | Error _ -> false
      | Ok op ->
          (* check KCL at every non-source node: sum of resistor currents *)
          let ok = ref true in
          for i = 2 to n_nodes - 1 do
            let vi = Dcop.voltage_by_name op c (node i) in
            let total = ref 0. in
            Array.iter
              (fun dev ->
                match dev with
                | Yield_spice.Device.Resistor { n1; n2; ohms; _ } ->
                    let v1 = Dcop.voltage op n1 and v2 = Dcop.voltage op n2 in
                    if n1 = Circuit.node c (node i) then
                      total := !total +. ((v1 -. v2) /. ohms)
                    else if n2 = Circuit.node c (node i) then
                      total := !total +. ((v2 -. v1) /. ohms)
                | _ -> ())
              (Circuit.devices c);
            if Float.abs !total > 1e-9 *. (1. +. Float.abs vi) then ok := false
          done;
          !ok)

(* Reciprocity: in a purely resistive two-port, the transfer impedance from
   port 1 to port 2 equals the one from port 2 to port 1. *)
let prop_resistive_reciprocity =
  QCheck.Test.make ~count:60 ~name:"resistive networks are reciprocal"
    QCheck.(int_bound 1000000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let rs = Array.init 5 (fun _ -> 100. +. Random.State.float st 10_000.) in
      let build ~drive_port1 =
        let c = Circuit.create () in
        Circuit.add_resistor c ~name:"RA" "p1" "mid" rs.(0);
        Circuit.add_resistor c ~name:"RB" "mid" "p2" rs.(1);
        Circuit.add_resistor c ~name:"RC" "mid" "0" rs.(2);
        Circuit.add_resistor c ~name:"RD" "p1" "0" rs.(3);
        Circuit.add_resistor c ~name:"RE" "p2" "0" rs.(4);
        let port = if drive_port1 then "p1" else "p2" in
        Circuit.add_isource c ~name:"I1" "0" port 1e-3;
        c
      in
      let c1 = build ~drive_port1:true in
      let c2 = build ~drive_port1:false in
      match (Dcop.solve c1, Dcop.solve c2) with
      | Ok op1, Ok op2 ->
          let v21 = Dcop.voltage_by_name op1 c1 "p2" in
          let v12 = Dcop.voltage_by_name op2 c2 "p1" in
          Float.abs (v21 -. v12) < 1e-9 *. (1. +. Float.abs v21)
      | _ -> false)

(* The AC solution at very low frequency matches the small-signal DC gain
   implied by finite differences of the nonlinear solve. *)
let test_ac_matches_dc_small_signal () =
  let build vin =
    let c = Circuit.create () in
    Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
    Circuit.add_vsource c ~name:"VIN" ~ac:1. "g" "0" vin;
    Circuit.add_mosfet c ~name:"M1" ~d:"out" ~g:"g" ~s:"0" ~b:"0" ~model:nmos
      ~w:50e-6 ~l:1e-6;
    Circuit.add_resistor c ~name:"RL" "vdd" "out" 30_000.;
    Circuit.nodeset c (Circuit.node c "out") 2.;
    c
  in
  let vin = 0.65 in
  let dv = 1e-5 in
  let vout_at v =
    let c = build v in
    match Dcop.solve c with
    | Ok op -> Dcop.voltage_by_name op c "out"
    | Error _ -> Alcotest.fail "dc failed"
  in
  let dc_gain = (vout_at (vin +. dv) -. vout_at (vin -. dv)) /. (2. *. dv) in
  let c = build vin in
  let op = match Dcop.solve c with Ok o -> o | Error _ -> Alcotest.fail "dc" in
  let bode = Ac.transfer_by_name c op ~out:"out" ~freqs:[| 0.01 |] in
  let ac_gain = bode.Ac.response.(0).Complex.re in
  check_float ~eps:1e-4 "ac = d vout / d vin" dc_gain ac_gain

(* analytic derivatives hold across random bias points *)
let prop_mos_derivatives_random =
  QCheck.Test.make ~count:100 ~name:"mos analytic derivatives match numeric"
    QCheck.(triple (float_range 0.2 2.5) (float_range 0.05 3.) (float_range (-1.5) 0.))
    (fun (vgs, vds, vbs) ->
      let w = 20e-6 and l = 1e-6 in
      let dv = 1e-6 in
      let ids vgs vds vbs = (Mosfet.eval nmos ~w ~l ~vgs ~vds ~vbs).Mosfet.ids in
      let op = Mosfet.eval nmos ~w ~l ~vgs ~vds ~vbs in
      let gm_num = (ids (vgs +. dv) vds vbs -. ids (vgs -. dv) vds vbs) /. (2. *. dv) in
      let gds_num = (ids vgs (vds +. dv) vbs -. ids vgs (vds -. dv) vbs) /. (2. *. dv) in
      let ok a b = Float.abs (a -. b) <= 1e-3 *. (1e-9 +. Float.abs a) in
      ok gm_num op.Mosfet.gm && ok gds_num op.Mosfet.gds)

let prop_netlist_value_roundtrip =
  QCheck.Test.make ~count:200 ~name:"netlist values round-trip through printing"
    QCheck.(float_range (-12.) 12.)
    (fun exponent ->
      let v = 10. ** exponent in
      let printed =
        (* reuse the printer through a full card *)
        let c = Circuit.create () in
        Circuit.add_resistor c ~name:"R1" "a" "0" v;
        Netlist.to_string c
      in
      let reparsed = Netlist.parse printed in
      match Circuit.find_device reparsed "R1" with
      | Yield_spice.Device.Resistor { ohms; _ } ->
          Float.abs (ohms -. v) <= 1e-5 *. v
      | _ -> false)

let test_circuit_duplicate_device () =
  let c = Circuit.create () in
  Circuit.add_resistor c ~name:"R1" "a" "0" 1.;
  match Circuit.add_resistor c ~name:"R1" "b" "0" 2. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected duplicate rejection"

let test_circuit_replace_device () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" "in" "0" 1.;
  Circuit.add_resistor c ~name:"R1" "in" "out" 1000.;
  Circuit.add_resistor c ~name:"R2" "out" "0" 1000.;
  Circuit.replace_device c "R2" (function
    | Yield_spice.Device.Resistor r -> Yield_spice.Device.Resistor { r with ohms = 3000. }
    | other -> other);
  let op = solve_ok c in
  check_float ~eps:1e-9 "replaced divider" 0.75 (Dcop.voltage_by_name op c "out")

(* The grids and magnitudes fill one flat array in a loop; they must keep
   the bits of the Array.init / Array.map formulas they replaced, on the
   testbench's default grid (10 Hz - 1 GHz, 10 a decade) and its shared
   copy. *)
let test_default_grid_bits () =
  let bits = Int64.bits_of_float in
  let old_linspace a b n =
    let step = (b -. a) /. float_of_int (n - 1) in
    Array.init n (fun i -> a +. (float_of_int i *. step))
  in
  let old_logspace a b n = Array.map exp (old_linspace (log a) (log b) n) in
  let same what expect got =
    Alcotest.(check int) (what ^ ": length") (Array.length expect) (Array.length got);
    Array.iteri
      (fun i e ->
        if bits e <> bits got.(i) then
          Alcotest.failf "%s: point %d is %h, was %h" what i got.(i) e)
      expect
  in
  let grid = Ac.default_freqs ~f_lo:10. ~f_hi:1e9 () in
  Alcotest.(check int) "81 points" 81 (Array.length grid);
  same "default grid" (old_logspace 10. 1e9 81) grid;
  let module Gtb = Yield_circuits.Testbench in
  let shared = Gtb.freqs_of Gtb.default_conditions in
  same "testbench grid" grid shared;
  Alcotest.(check bool) "one grid per conditions" true
    (Gtb.freqs_of Gtb.default_conditions == shared);
  same "linspace" (old_linspace (-2.) 2. 21) (Yield_numeric.Vec.linspace (-2.) 2. 21);
  let response =
    Array.mapi
      (fun i f -> { Complex.re = 1e3 /. (1. +. f); im = -.float_of_int i })
      grid
  in
  let bode = { Ac.freqs = grid; response } in
  same "magnitudes" (Array.map Measure.magnitude_db response) (Measure.magnitudes_db bode)

let suites =
  [
    ( "spice.mosfet",
      [
        Alcotest.test_case "cutoff" `Quick test_mos_cutoff;
        Alcotest.test_case "square law" `Quick test_mos_square_law;
        Alcotest.test_case "analytic derivatives" `Quick test_mos_gm_matches_numeric;
        Alcotest.test_case "weak-strong continuity" `Quick
          test_mos_continuity_weak_strong;
        Alcotest.test_case "source-drain reversal" `Quick test_mos_reverse_symmetry;
        Alcotest.test_case "body effect" `Quick test_mos_body_effect_raises_vth;
        Alcotest.test_case "channel-length modulation" `Quick
          test_mos_longer_l_lower_lambda;
        Alcotest.test_case "bad geometry" `Quick test_mos_bad_geometry;
      ] );
    ( "spice.dcop",
      [
        Alcotest.test_case "resistive divider" `Quick test_dc_divider;
        Alcotest.test_case "current source" `Quick test_dc_isource;
        Alcotest.test_case "vccs" `Quick test_dc_vccs;
        Alcotest.test_case "diode-connected mos" `Quick test_dc_diode_connected_mos;
        Alcotest.test_case "nmos mirror ratio" `Quick test_dc_nmos_mirror_ratio;
        Alcotest.test_case "pmos mirror" `Quick test_dc_pmos_mirror;
        Alcotest.test_case "singular reported" `Quick test_dc_no_convergence_reported;
      ] );
    ( "spice.ac",
      [
        Alcotest.test_case "rc lowpass" `Quick test_ac_rc_lowpass;
        Alcotest.test_case "common-source gain" `Quick test_ac_common_source_gain;
        Alcotest.test_case "stop-rule promises" `Quick test_ac_stop_promises;
        Alcotest.test_case "default grid keeps its bits" `Quick test_default_grid_bits;
      ] );
    ( "spice.measure",
      [
        Alcotest.test_case "crossing" `Quick test_measure_crossing;
        Alcotest.test_case "single-pole pm" `Quick test_measure_single_pole_pm;
        Alcotest.test_case "two-pole pm" `Quick test_measure_two_pole_pm;
      ] );
    ( "spice.netlist",
      [
        Alcotest.test_case "value suffixes" `Quick test_parse_value_suffixes;
        Alcotest.test_case "parse and solve" `Quick test_netlist_parse_and_solve;
        Alcotest.test_case "roundtrip" `Quick test_netlist_roundtrip;
        Alcotest.test_case "roundtrip flattened" `Quick test_netlist_roundtrip_flattened;
        Alcotest.test_case "errors" `Quick test_netlist_errors;
        Alcotest.test_case "subckt expansion" `Quick test_netlist_subckt_expansion;
        Alcotest.test_case "subckt errors" `Quick test_netlist_subckt_errors;
        Alcotest.test_case "analysis cards" `Quick test_netlist_analysis_cards;
        QCheck_alcotest.to_alcotest prop_netlist_value_roundtrip;
      ] );
    ( "spice.invariants",
      [
        QCheck_alcotest.to_alcotest prop_dc_kcl_residual;
        QCheck_alcotest.to_alcotest prop_resistive_reciprocity;
        Alcotest.test_case "ac matches dc small-signal" `Quick
          test_ac_matches_dc_small_signal;
        QCheck_alcotest.to_alcotest prop_mos_derivatives_random;
      ] );
    ( "spice.circuit",
      [
        Alcotest.test_case "duplicate device" `Quick test_circuit_duplicate_device;
        Alcotest.test_case "replace device" `Quick test_circuit_replace_device;
      ] );
  ]
