(* Corner-aware abstract interpretation (Corner_lint): interval-op unit
   tests, golden lint fixtures, and the load-bearing soundness property —
   every seeded Monte Carlo sample whose perturbed model parameters lie in
   the k-sigma box lands inside the predicted (gain, PM) enclosures. *)

module I = Yield_analyse.Interval
module CL = Yield_analyse.Corner_lint
module Deck = Yield_analyse.Deck
module Diagnostic = Yield_analyse.Diagnostic
module Tb = Yield_circuits.Testbench
module Ota = Yield_circuits.Ota
module Ota_tb = Yield_circuits.Ota_testbench
module Miller = Yield_circuits.Miller
module Miller_tb = Yield_circuits.Miller_testbench
module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Mosfet = Yield_spice.Mosfet
module Measure = Yield_spice.Measure
module Variation = Yield_process.Variation
module Rng = Yield_stats.Rng

let fixture name =
  (* the test binary runs from an arbitrary sandbox dir; walk up to the
     repo root that contains examples/ *)
  let rec find dir =
    let candidate = Filename.concat dir (Filename.concat "examples/netlists" name) in
    if Sys.file_exists candidate then candidate
    else
      let parent = Filename.dirname dir in
      if parent = dir then Alcotest.failf "fixture %s not found" name
      else find parent
  in
  find (Sys.getcwd ())

(* ---------- interval operation units (satellite: div/pow_int/monotone) ---------- *)

let check_encloses what (i : I.t) xs =
  List.iter
    (fun x ->
      if not (I.contains i x) then
        Alcotest.failf "%s: %s does not contain %.17g" what (I.to_string i) x)
    xs

let test_div_endpoint_zero () =
  (* divisor touching zero only at an endpoint gives a tight half-line *)
  let d = I.div (I.make 1. 2.) (I.make 0. 4.) in
  Alcotest.(check bool) "lo finite" true (d.I.lo > 0.2 && d.I.lo <= 0.25);
  Alcotest.(check (float 0.)) "hi inf" infinity d.I.hi;
  let d2 = I.div (I.make (-2.) (-1.)) (I.make 0. 4.) in
  Alcotest.(check (float 0.)) "neg lo inf" neg_infinity d2.I.lo;
  Alcotest.(check bool) "neg hi" true (d2.I.hi >= -0.25 && d2.I.hi < -0.2);
  let d3 = I.div (I.make 1. 2.) (I.make (-4.) 0.) in
  Alcotest.(check (float 0.)) "mirror lo inf" neg_infinity d3.I.lo;
  Alcotest.(check bool) "mirror hi" true (d3.I.hi >= -0.25 && d3.I.hi < -0.2);
  (* numerator spanning zero over such a divisor is unbounded both ways *)
  let d4 = I.div (I.make (-1.) 1.) (I.make 0. 4.) in
  Alcotest.(check bool) "span whole" true
    (d4.I.lo = neg_infinity && d4.I.hi = infinity);
  (* interior zero stays whole *)
  let d5 = I.div (I.make 1. 2.) (I.make (-1.) 1.) in
  Alcotest.(check bool) "interior whole" true
    (d5.I.lo = neg_infinity && d5.I.hi = infinity)

let test_div_encloses_samples () =
  (* outward rounding: float quotients of contained operands stay inside *)
  let a = I.make 1.1 3.3 and b = I.make 0.7 1.9 in
  let q = I.div a b in
  check_encloses "div" q
    [ 1.1 /. 0.7; 1.1 /. 1.9; 3.3 /. 0.7; 3.3 /. 1.9; 2.2 /. 1.3 ]

let test_pow_int () =
  let a = I.make (-2.) 3. in
  let sq = I.pow_int a 2 in
  check_encloses "square" sq [ 4.; 9.; 0.; 1.21 ];
  Alcotest.(check (float 0.)) "square lo" 0. sq.I.lo;
  let cube = I.pow_int a 3 in
  check_encloses "cube" cube [ -8.; 27.; 0. ];
  let inv2 = I.pow_int (I.make 2. 4.) (-2) in
  check_encloses "inv square" inv2 [ 0.25; 0.0625 ];
  Alcotest.check_raises "min_int rejected"
    (Invalid_argument "Interval.pow_int: exponent out of range") (fun () ->
      ignore (I.pow_int a min_int));
  (* n = 0 is the constant 1 *)
  check_encloses "zeroth" (I.pow_int a 0) [ 1. ]

let test_monotone_maps () =
  let e = I.monotone_incr exp (I.make 0. 1.) in
  check_encloses "exp" e [ 1.; Float.exp 1.; Float.exp 0.5 ];
  let l = I.monotone_decr (fun x -> -.log x) (I.make 1. 2.) in
  check_encloses "neg log" l [ 0.; -.log 2. ];
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Interval.monotone_incr: map returned NaN") (fun () ->
      ignore (I.monotone_incr sqrt (I.make (-1.) 1.)))

let test_widen () =
  let w = I.widen ~ulps:4 (I.point 1.) in
  Alcotest.(check bool) "strictly wider" true (w.I.lo < 1. && w.I.hi > 1.);
  Alcotest.(check bool) "4 ulps each side" true
    (w.I.hi = Float.succ (Float.succ (Float.succ (Float.succ 1.))))

(* ---------- soundness property (load-bearing contract) ---------- *)

(* a sample is covered by the analysis when, for SOME verified slice of the
   global-Vth plane, every perturbed MOS model parameter lies in that
   slice's per-device box (the decomposition report.slices describes) *)
let sample_in_box ~k ~spec ~slices original perturbed =
  let in_slice_box (s_n, s_p) (m0 : Mosfet.model) ~w ~l (mp : Mosfet.model) =
    let g = spec.Variation.global in
    let mm = spec.Variation.mismatch in
    let gvth, sg_kp, a_beta =
      match m0.Mosfet.polarity with
      | Mosfet.Nmos -> (s_n, g.Variation.sigma_kp_rel_n, mm.Variation.abeta_n)
      | Mosfet.Pmos -> (s_p, g.Variation.sigma_kp_rel_p, mm.Variation.abeta_p)
    in
    let sm_vth = Variation.mismatch_sigma_vth spec m0.Mosfet.polarity ~w ~l in
    let sm_beta = a_beta /. sqrt (w *. l) in
    let kk = I.of_bounds (-.k) k in
    let vbox =
      I.add (I.point m0.Mosfet.vth0) (I.add gvth (I.mul kk (I.point sm_vth)))
    in
    let kbox =
      I.mul (I.point m0.Mosfet.kp)
        (I.add (I.point 1.)
           (I.add (I.mul kk (I.point sg_kp)) (I.mul kk (I.point sm_beta))))
    in
    let lbox =
      I.mul (I.point m0.Mosfet.lambda0)
        (I.add (I.point 1.) (I.mul kk (I.point g.Variation.sigma_lambda_rel)))
    in
    I.contains vbox mp.Mosfet.vth0
    && I.contains kbox mp.Mosfet.kp
    && I.contains lbox mp.Mosfet.lambda0
  in
  let models c =
    Array.to_list (Circuit.devices c)
    |> List.filter_map (function
         | Device.Mosfet { model; w; l; _ } -> Some (model, w, l)
         | _ -> None)
  in
  let origs = models original and perts = models perturbed in
  List.exists
    (fun slice ->
      List.for_all2
        (fun (m0, w, l) (mp, _, _) -> in_slice_box slice m0 ~w ~l mp)
        origs perts)
    slices

let in_opt what (enc : I.t option) x =
  match enc with
  | None -> ()
  | Some i ->
      if not (I.contains i x) then
        Alcotest.failf "%s = %.17g escapes enclosure %s" what x (I.to_string i)

(* The enclosure covers the truncated ±k·sigma box, so the property is
   geometric: ANY parameter point inside the box must land inside the
   enclosures, whatever its sampling density.  Drawing per-axis truncated
   normals (rejection on each scalar deviate) therefore exercises exactly
   the contract -- these are the flow's MC samples that happen to fall in
   the box -- while keeping every sample usable at small k, where
   unconditioned 25-dimensional draws would essentially never qualify. *)
let soundness_case ~name ~samples ~seed ~k ~conditions ~circuit
    ~(bode_of_circuit : Circuit.t -> Yield_spice.Ac.bode option) () =
  let spec = Variation.default_spec in
  let window = { CL.min_gain_db = 0.; min_pm_deg = 0. } in
  let freqs = Tb.freqs_of conditions in
  let report = CL.analyse_circuit ~k_sigma:k ~spec ~window ~freqs ~out:"out" circuit in
  if not report.CL.dc_verified then
    Alcotest.failf "%s: no verified DC enclosure (%s)" name
      (String.concat "; " report.CL.notes);
  let enc = report.CL.enclosure in
  if enc.CL.gain_db = None then
    Alcotest.failf "%s: no gain enclosure (%s)" name
      (String.concat "; " report.CL.notes);
  let rng = Rng.create seed in
  let rec truncated_z () =
    let z = Rng.normal rng ~mean:0. ~sigma:1. in
    if Float.abs z <= k then z else truncated_z ()
  in
  let skipped = ref 0 and degenerate = ref 0 and checked = ref 0 in
  for _ = 1 to samples do
    let perturbed =
      Variation.apply_overrides circuit
        (Variation.overrides_gen spec truncated_z circuit)
    in
    if not (sample_in_box ~k ~spec ~slices:report.CL.slices circuit perturbed)
    then incr skipped
    else
      match bode_of_circuit perturbed with
      | None -> incr degenerate
      | Some b -> (
          incr checked;
          in_opt (name ^ " gain") enc.CL.gain_db (Measure.dc_gain_db b);
          (match Measure.unity_gain_freq b with
          | Some fu -> in_opt (name ^ " fu") enc.CL.unity_gain_hz fu
          | None -> ());
          match Measure.phase_margin_deg b with
          | Some pm -> in_opt (name ^ " pm") enc.CL.pm_deg pm
          | None -> ())
  done;
  (* every truncated draw lies in the box by construction, so any skip
     beyond boundary rounding means the conditioning (hence the box
     construction itself) is wrong *)
  if !skipped * 20 > samples then
    Alcotest.failf "%s: %d of %d truncated samples outside the box" name
      !skipped samples;
  if !checked * 2 < samples then
    Alcotest.failf "%s: only %d of %d samples produced a bode" name !checked
      samples

let fast_conditions =
  { Tb.default_conditions with Tb.points_per_decade = 5; f_lo = 100.; f_hi = 1e9 }

let test_soundness_ota () =
  let circuit, out = Ota_tb.build ~conditions:fast_conditions Ota.default_params in
  Alcotest.(check string) "probe node" "out" out;
  soundness_case ~name:"ota" ~samples:1000 ~seed:2008 ~k:0.5
    ~conditions:fast_conditions ~circuit
    ~bode_of_circuit:(Ota_tb.bode_of_circuit ~conditions:fast_conditions)
    ()

let test_soundness_miller () =
  let circuit, out =
    Miller_tb.build ~conditions:fast_conditions Miller.default_params
  in
  Alcotest.(check string) "probe node" "out" out;
  soundness_case ~name:"miller" ~samples:1000 ~seed:2009 ~k:0.5
    ~conditions:fast_conditions ~circuit
    ~bode_of_circuit:(Miller_tb.bode_of_circuit ~conditions:fast_conditions)
    ()

(* ---------- verdicts and golden lint fixtures ---------- *)

let render diags =
  Diagnostic.list_to_json diags |> Yield_obs.Json.to_string

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden name diags =
  let got = render diags ^ "\n" in
  match Sys.getenv_opt "YIELDLAB_BLESS" with
  | Some _ ->
      (* regenerate next to the deck fixtures: YIELDLAB_BLESS=1 dune runtest *)
      let dir = Filename.dirname (fixture "rc_lowpass.cir") in
      let oc = open_out (Filename.concat dir name) in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          output_string oc got)
  | None ->
      let want = read_file (fixture name) in
      if got <> want then
        Alcotest.failf "golden mismatch for %s:\n--- want ---\n%s--- got ---\n%s"
          name want got

let test_fixture_provably_fail () =
  let diags = CL.check_deck (Deck.load (fixture "corner_fail.cir")) in
  (match
     List.find_opt (fun d -> d.Diagnostic.code = "Y001") diags
   with
  | Some _ -> ()
  | None ->
      Alcotest.failf "expected Y001, got: %s" (Diagnostic.list_to_text diags));
  check_golden "corner_fail.golden.json"
    (List.map (fun d -> { d with Diagnostic.file = None }) diags)

let test_fixture_undecided () =
  let window = { CL.min_gain_db = 14.; min_pm_deg = 45. } in
  let diags = CL.check_deck ~window (Deck.load (fixture "corner_amp.cir")) in
  (match List.find_opt (fun d -> d.Diagnostic.code = "Y003") diags with
  | Some _ -> ()
  | None ->
      Alcotest.failf "expected Y003, got: %s" (Diagnostic.list_to_text diags));
  check_golden "corner_amp.golden.json"
    (List.map (fun d -> { d with Diagnostic.file = None }) diags)

let test_passive_deck_has_no_dcodes () =
  let diags = CL.check_deck (Deck.load (fixture "rc_lowpass.cir")) in
  List.iter
    (fun d ->
      if String.length d.Diagnostic.code > 0 && d.Diagnostic.code.[0] = 'D' then
        Alcotest.failf "unexpected D-code on a passive deck: %s"
          (Diagnostic.to_text d))
    diags

let test_diagnostics_rendering () =
  (* a synthetic report exercises the Y-code renderer without a solve *)
  let report =
    {
      CL.verdict = CL.Provably_fail;
      enclosure =
        {
          CL.gain_db = Some (I.make 2. 4.);
          unity_gain_hz = None;
          pm_deg = Some (I.make 30. 40.);
        };
      dc_verified = true;
      devices =
        [ { CL.device = "M1"; proved = true; detail = "saturated across the box" } ];
      slices = [];
      notes = [];
    }
  in
  let window = { CL.min_gain_db = 10.; min_pm_deg = 45. } in
  let diags = CL.diagnostics ~subject:"out" ~window report in
  let y = List.find (fun d -> d.Diagnostic.code = "Y001") diags in
  Alcotest.(check bool) "warning severity" true
    (y.Diagnostic.severity = Diagnostic.Warning);
  Alcotest.(check bool) "evidence quoted" true
    (let msg = y.Diagnostic.message in
     let has needle =
       let nl = String.length needle and ml = String.length msg in
       let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
       go 0
     in
     has "[2, 4]" && has "[30, 40]");
  let d1 = List.find (fun d -> d.Diagnostic.code = "D001" ) diags in
  Alcotest.(check string) "device subject" "M1" d1.Diagnostic.subject;
  (* suppressing the verdict leaves only D-codes *)
  let dcodes = CL.diagnostics ~emit_verdict:false ~subject:"out" ~window report in
  Alcotest.(check bool) "no Y-code" true
    (List.for_all (fun d -> d.Diagnostic.code.[0] = 'D') dcodes)

(* Every field of a report, floats as %h: the golden reports print six
   digits, so a moved enclosure bit shows here only *)
let report_text (r : CL.report) =
  let itv (i : I.t) = Printf.sprintf "[%h, %h]" i.I.lo i.I.hi in
  let opt = function None -> "none" | Some i -> itv i in
  let e = r.CL.enclosure in
  String.concat "\n"
    ([
       CL.verdict_to_string r.CL.verdict;
       opt e.CL.gain_db;
       opt e.CL.unity_gain_hz;
       opt e.CL.pm_deg;
       string_of_bool r.CL.dc_verified;
     ]
    @ List.map
        (fun (d : CL.device_proof) ->
          Printf.sprintf "%s %b %s" d.CL.device d.CL.proved d.CL.detail)
        r.CL.devices
    @ List.map (fun (a, b) -> itv a ^ " x " ^ itv b) r.CL.slices
    @ r.CL.notes)

(* the default OTA and Miller testbenches at k = 0.5 against a 60 dB gain
   window (the prescreen fixture's setting): each report's bits *)
let test_report_bits () =
  let window = { CL.min_gain_db = 60.; min_pm_deg = 0. } in
  let freqs = Tb.freqs_of Tb.default_conditions in
  List.iter
    (fun (name, (circuit, out), verdict, digest) ->
      let r = CL.analyse_circuit ~k_sigma:0.5 ~window ~freqs ~out circuit in
      Alcotest.(check string) (name ^ " verdict")
        (CL.verdict_to_string verdict)
        (CL.verdict_to_string r.CL.verdict);
      Alcotest.(check int) (name ^ " slices") 4 (List.length r.CL.slices);
      Alcotest.(check string) (name ^ " report digest") digest
        (Digest.to_hex (Digest.string (report_text r))))
    [
      ( "ota",
        Ota_tb.build Ota.default_params,
        CL.Provably_fail,
        "1c1d68c18ff9e959845a1ca957a61a8e" );
      ( "miller",
        Miller_tb.build Miller.default_params,
        CL.Provably_pass,
        "cf0bf67718e185fe0cff00967d470e4b" );
    ]

let suites =
  [
    ( "corner-interval-ops",
      [
        Alcotest.test_case "div endpoint zero" `Quick test_div_endpoint_zero;
        Alcotest.test_case "div encloses samples" `Quick test_div_encloses_samples;
        Alcotest.test_case "pow_int" `Quick test_pow_int;
        Alcotest.test_case "monotone maps" `Quick test_monotone_maps;
        Alcotest.test_case "widen" `Quick test_widen;
      ] );
    ( "corner-soundness",
      [
        Alcotest.test_case "ota enclosures contain MC" `Slow test_soundness_ota;
        Alcotest.test_case "miller enclosures contain MC" `Slow
          test_soundness_miller;
      ] );
    ( "corner-fixtures",
      [
        Alcotest.test_case "provably-fail divider" `Quick
          test_fixture_provably_fail;
        Alcotest.test_case "undecided amplifier" `Quick test_fixture_undecided;
        Alcotest.test_case "passive deck has no D-codes" `Quick
          test_passive_deck_has_no_dcodes;
        Alcotest.test_case "diagnostics rendering" `Quick
          test_diagnostics_rendering;
        Alcotest.test_case "report bits" `Quick test_report_bits;
      ] );
  ]
