(* Tests for the extension features: sensitivity analysis,
   OTA step response / CMRR / PSRR / noise measurements, the Verilog-A
   emitter, and the guarded performance-model lookup. *)

module Variation = Yield_process.Variation
module Sensitivity = Yield_process.Sensitivity
module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Perf_model = Yield_behavioural.Perf_model
module Var_model = Yield_behavioural.Var_model
module Macromodel = Yield_behavioural.Macromodel
module Verilog_a = Yield_behavioural.Verilog_a
module Tbl_io = Yield_table.Tbl_io

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  nn = 0 || scan 0

let test_global_draw_of_normals () =
  let spec = Variation.default_spec in
  let draw = Variation.global_draw_of_normals spec [| 1.; 0.; 0.; 0.; 0. |] in
  check_float "one sigma vth_n" spec.Variation.global.Variation.sigma_vth_n
    draw.Variation.dvth_n;
  check_float "others zero" 0. draw.Variation.dkp_rel_p;
  match Variation.global_draw_of_normals spec [| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity not checked"

(* --- sensitivity --- *)

let test_sensitivity_linear_model () =
  (* response = 2*dvth_n + 1*dkp_rel_n (in sigma units) *)
  let spec = Variation.default_spec in
  let eval (d : Variation.global_draw) =
    Some
      ((2. *. d.Variation.dvth_n /. spec.Variation.global.Variation.sigma_vth_n)
      +. (d.Variation.dkp_rel_n /. spec.Variation.global.Variation.sigma_kp_rel_n))
  in
  match Sensitivity.analyse ~spec ~eval with
  | Error e -> Alcotest.fail e
  | Ok results ->
      let find c =
        List.find (fun r -> r.Sensitivity.component = c) results
      in
      check_float "vth_n slope" 2. (find Sensitivity.Vth_n).Sensitivity.per_sigma;
      check_float "kp_n slope" 1. (find Sensitivity.Kp_n).Sensitivity.per_sigma;
      check_float ~eps:1e-9 "variance shares" 0.8
        (find Sensitivity.Vth_n).Sensitivity.variance_share;
      let total =
        List.fold_left (fun acc r -> acc +. r.Sensitivity.variance_share) 0. results
      in
      check_float "shares sum to 1" 1. total

let test_sensitivity_on_ota_gain () =
  let spec = Variation.default_spec in
  let session = Tb.session Ota.default_params in
  let eval draw =
    Option.map (fun p -> p.Tb.gain_db) (Tb.evaluate_with_draw session ~spec ~draw)
  in
  match Sensitivity.analyse ~spec ~eval with
  | Error e -> Alcotest.fail e
  | Ok results ->
      (* channel-length modulation dominates the gain spread of this
         topology (it sets Rout) *)
      let lambda = List.find (fun r -> r.Sensitivity.component = Sensitivity.Lambda) results in
      Alcotest.(check bool) "lambda is a major contributor" true
        (lambda.Sensitivity.variance_share > 0.3)

(* --- OTA time-domain and rejection measurements --- *)

let test_step_response_slews () =
  (* a step that does not exist is refused before simulating *)
  List.iter
    (fun amplitude ->
      match Tb.step_perf ~amplitude Ota.default_params with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "amplitude %g accepted" amplitude)
    [ 0.; Float.nan; Float.infinity ];
  match Tb.step_perf Ota.default_params with
  | None -> Alcotest.fail "step response failed"
  | Some s ->
      (* the ideal slew limit is Itail/CL = 20uA / 3pF = 6.7 V/us *)
      Alcotest.(check bool) "slew in physical range" true
        (s.Tb.slew_v_per_us > 2. && s.Tb.slew_v_per_us < 20.);
      Alcotest.(check bool) "settles" true (s.Tb.settling_1pct_s <> None);
      Alcotest.(check bool) "follower gain error small" true
        (s.Tb.final_error_v < 0.05)

let test_cmrr_psrr_positive () =
  (match Tb.cmrr_db Ota.default_params with
  | Some v -> Alcotest.(check bool) "cmrr plausible" true (v > 40. && v < 140.)
  | None -> Alcotest.fail "cmrr failed");
  match Tb.psrr_db Ota.default_params with
  | Some v -> Alcotest.(check bool) "psrr plausible" true (v > 30. && v < 140.)
  | None -> Alcotest.fail "psrr failed"

let test_input_noise () =
  match Tb.input_referred_noise Ota.default_params with
  | None -> Alcotest.fail "noise analysis failed"
  | Some (pairs, rms) ->
      Alcotest.(check bool) "rms positive" true (rms > 0.);
      Alcotest.(check bool) "rms sane (< 1 mV)" true (rms < 1e-3);
      (* 1/f noise: PSD at 10 Hz well above PSD at 1 MHz *)
      let psd_at f =
        let _, p =
          Array.fold_left
            (fun ((bd, _) as best) (fp, pp) ->
              if Float.abs (log (fp /. f)) < Float.abs (log (bd /. f)) then (fp, pp)
              else best)
            pairs.(0) pairs
        in
        p
      in
      Alcotest.(check bool) "flicker slope" true (psd_at 10. > 10. *. psd_at 1e6)

(* --- Verilog-A emitter --- *)

let synthetic_model () =
  let front =
    Array.init 10 (fun i ->
        let t = float_of_int i /. 9. in
        {
          Perf_model.gain_db = 45. +. (10. *. t);
          pm_deg = 85. -. (20. *. t);
          params = Array.make 8 (1e-6 *. (1. +. t));
          rout = 1e6;
          unity_gain_hz = 1e7;
        })
  in
  let var =
    Array.init 10 (fun i ->
        let t = float_of_int i /. 9. in
        {
          Var_model.gain_db = 45. +. (10. *. t);
          pm_deg = 85. -. (20. *. t);
          dgain_pct = 0.5;
          dpm_pct = 1.5;
          mc_samples = 100;
        })
  in
  Macromodel.create (Perf_model.create front) (Var_model.create var)

let test_verilog_a_module_text () =
  let text = Verilog_a.module_text ~control:"3E" () in
  List.iter
    (fun fragment ->
      if not (contains text fragment) then
        Alcotest.failf "module text missing %S" fragment)
    [
      "module ota_behavioural";
      "$table_model(gain, \"gain_delta.tbl\", \"3E\")";
      "$table_model(pm, \"pm_delta.tbl\", \"3E\")";
      "gain_prop = ((gain_delta/100)*gain) + gain";
      "lp1_data.tbl";
      "lp8_data.tbl";
      "V(out) <+ V(inp)*(-gain_in_v) - I(out)*ro";
      "endmodule";
    ]

let test_verilog_a_data_files () =
  let model = synthetic_model () in
  let files = Verilog_a.data_files model in
  Alcotest.(check int) "eleven tables" 11 (List.length files);
  let gain_delta = List.assoc "gain_delta.tbl" files in
  Alcotest.(check int) "variation rows" 10 (Tbl_io.n_rows gain_delta);
  (* every table round-trips through its textual form *)
  List.iter
    (fun (name, table) ->
      let back = Tbl_io.of_string (Tbl_io.to_string table) in
      if Tbl_io.n_rows back <> Tbl_io.n_rows table then
        Alcotest.failf "%s round trip changed row count" name)
    files

let test_verilog_a_save () =
  let model = synthetic_model () in
  let dir = Filename.temp_file "yieldlab" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let written = Verilog_a.save model ~dir in
      Alcotest.(check int) "module + 11 tables" 12 (List.length written);
      List.iter
        (fun path ->
          if not (Sys.file_exists path) then Alcotest.failf "%s missing" path)
        written)

(* --- guarded lookup --- *)

let test_lookup_guard_snaps_across_families () =
  (* two "families": identical performances trend but a parameter jump in
     the middle *)
  let front =
    Array.init 10 (fun i ->
        let t = float_of_int i /. 9. in
        let family_jump = if i >= 5 then 20e-6 else 0. in
        {
          Perf_model.gain_db = 45. +. (10. *. t);
          pm_deg = 85. -. (20. *. t);
          params = Array.make 8 (5e-6 +. (1e-6 *. t) +. family_jump);
          rout = 1e6;
          unity_gain_hz = 1e7;
        })
  in
  let model = Perf_model.create front in
  (* query halfway between the two families (between points 4 and 5) *)
  let gain_mid = 45. +. (10. *. (4.5 /. 9.)) in
  let pm_mid = 85. -. (20. *. (4.5 /. 9.)) in
  let guarded = Perf_model.lookup model ~gain_db:gain_mid ~pm_deg:pm_mid in
  let raw = Perf_model.lookup ~guard:false model ~gain_db:gain_mid ~pm_deg:pm_mid in
  (* raw interpolation blends the families (parameter ~ halfway between),
     the guard snaps to one of the measured designs *)
  let p_g = guarded.Perf_model.params.(0) in
  let p_r = raw.Perf_model.params.(0) in
  Alcotest.(check bool) "raw blends" true (p_r > 8e-6 && p_r < 24e-6);
  Alcotest.(check bool) "guarded snaps" true
    (Float.abs (p_g -. front.(4).Perf_model.params.(0)) < 1e-7
    || Float.abs (p_g -. front.(5).Perf_model.params.(0)) < 1e-7)

let suites =
  [
    ( "process.sensitivity",
      [
        Alcotest.test_case "global_draw_of_normals" `Quick test_global_draw_of_normals;
        Alcotest.test_case "linear model" `Quick test_sensitivity_linear_model;
        Alcotest.test_case "ota gain drivers" `Slow test_sensitivity_on_ota_gain;
      ] );
    ( "circuits.extended",
      [
        Alcotest.test_case "step response" `Slow test_step_response_slews;
        Alcotest.test_case "cmrr/psrr" `Quick test_cmrr_psrr_positive;
        Alcotest.test_case "input noise" `Slow test_input_noise;
      ] );
    ( "behavioural.verilog_a",
      [
        Alcotest.test_case "module text" `Quick test_verilog_a_module_text;
        Alcotest.test_case "data files" `Quick test_verilog_a_data_files;
        Alcotest.test_case "save" `Quick test_verilog_a_save;
      ] );
    ( "behavioural.lookup_guard",
      [
        Alcotest.test_case "family snapping" `Quick
          test_lookup_guard_snaps_across_families;
      ] );
  ]
