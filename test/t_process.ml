(* Tests for the yield_process library: technology models, variation
   sampling, corners, Monte Carlo machinery. *)

module Tech = Yield_process.Tech
module Variation = Yield_process.Variation
module Corner = Yield_process.Corner
module Montecarlo = Yield_process.Montecarlo
module Pool = Yield_exec.Pool
module Mosfet = Yield_spice.Mosfet
module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Rng = Yield_stats.Rng
module Summary = Yield_stats.Summary

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let test_tech_sanity () =
  let t = Tech.c35 in
  Alcotest.(check bool) "vdd" true (t.Tech.vdd = 3.3);
  Alcotest.(check bool) "nmos polarity" true
    (t.Tech.nmos.Mosfet.polarity = Mosfet.Nmos);
  Alcotest.(check bool) "pmos polarity" true
    (t.Tech.pmos.Mosfet.polarity = Mosfet.Pmos);
  Alcotest.(check bool) "pmos weaker" true
    (t.Tech.pmos.Mosfet.kp < t.Tech.nmos.Mosfet.kp)

let test_pelgrom_scaling () =
  let spec = Variation.default_spec in
  let small = Variation.mismatch_sigma_vth spec Mosfet.Nmos ~w:10e-6 ~l:1e-6 in
  let big = Variation.mismatch_sigma_vth spec Mosfet.Nmos ~w:40e-6 ~l:1e-6 in
  check_float ~eps:1e-9 "sigma halves with 4x area" (small /. 2.) big

let test_zero_spec_is_identity () =
  let rng = Rng.create 1 in
  let draw = Variation.draw_global Variation.zero_spec rng in
  let model = Tech.c35.Tech.nmos in
  let perturbed =
    Variation.perturb_model Variation.zero_spec draw rng ~w:10e-6 ~l:1e-6 model
  in
  check_float "vth unchanged" model.Mosfet.vth0 perturbed.Mosfet.vth0;
  check_float "kp unchanged" model.Mosfet.kp perturbed.Mosfet.kp

let test_scale_spec () =
  let spec = Variation.scale_spec 2. Variation.default_spec in
  check_float "vth sigma doubled"
    (2. *. Variation.default_spec.Variation.global.Variation.sigma_vth_n)
    spec.Variation.global.Variation.sigma_vth_n;
  check_float "avt doubled"
    (2. *. Variation.default_spec.Variation.mismatch.Variation.avt_n)
    spec.Variation.mismatch.Variation.avt_n

let test_perturb_circuit_structure () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" "vdd" "0" 3.3;
  Circuit.add_mosfet c ~name:"M1" ~d:"vdd" ~g:"vdd" ~s:"0" ~b:"0"
    ~model:Tech.c35.Tech.nmos ~w:10e-6 ~l:1e-6;
  let rng = Rng.create 5 in
  let p = Variation.perturb_circuit Variation.default_spec rng c in
  Alcotest.(check int) "device count preserved" 2 (Array.length (Circuit.devices p));
  (* original untouched *)
  (match Circuit.find_device c "M1" with
  | Device.Mosfet m ->
      check_float "original vth" Tech.c35.Tech.nmos.Mosfet.vth0 m.model.Mosfet.vth0
  | _ -> Alcotest.fail "M1 not a mosfet");
  match Circuit.find_device p "M1" with
  | Device.Mosfet m ->
      Alcotest.(check bool) "perturbed vth differs" true
        (m.model.Mosfet.vth0 <> Tech.c35.Tech.nmos.Mosfet.vth0)
  | _ -> Alcotest.fail "perturbed M1 not a mosfet"

let test_perturbation_statistics () =
  (* global + mismatch sigma should combine in quadrature *)
  let spec = Variation.default_spec in
  let rng = Rng.create 7 in
  let n = 20_000 in
  let vths =
    Array.init n (fun _ ->
        let draw = Variation.draw_global spec rng in
        let m =
          Variation.perturb_model spec draw rng ~w:10e-6 ~l:1e-6
            Tech.c35.Tech.nmos
        in
        m.Mosfet.vth0 -. Tech.c35.Tech.nmos.Mosfet.vth0)
  in
  let s = Summary.of_array vths in
  let sigma_mismatch =
    Variation.mismatch_sigma_vth spec Mosfet.Nmos ~w:10e-6 ~l:1e-6
  in
  let sigma_global = spec.Variation.global.Variation.sigma_vth_n in
  let expected = sqrt ((sigma_global ** 2.) +. (sigma_mismatch ** 2.)) in
  check_float ~eps:0.03 "combined sigma" expected (Summary.stddev s);
  check_float ~eps:0.05 "zero mean"
    0.
    (Summary.mean s /. expected)

let test_corner_directions () =
  let spec = Variation.default_spec in
  let ff = Corner.apply spec Corner.Ff Tech.c35 in
  let ss = Corner.apply spec Corner.Ss Tech.c35 in
  let tt = Corner.apply spec Corner.Tt Tech.c35 in
  Alcotest.(check bool) "ff lowers nmos vth" true
    (ff.Tech.nmos.Mosfet.vth0 < Tech.c35.Tech.nmos.Mosfet.vth0);
  Alcotest.(check bool) "ss raises nmos vth" true
    (ss.Tech.nmos.Mosfet.vth0 > Tech.c35.Tech.nmos.Mosfet.vth0);
  check_float "tt is nominal" Tech.c35.Tech.nmos.Mosfet.vth0
    tt.Tech.nmos.Mosfet.vth0;
  Alcotest.(check bool) "ff raises kp" true
    (ff.Tech.nmos.Mosfet.kp > Tech.c35.Tech.nmos.Mosfet.kp)

let test_corner_fs_mixed () =
  let spec = Variation.default_spec in
  let fs = Corner.apply spec Corner.Fs Tech.c35 in
  Alcotest.(check bool) "fs: fast nmos" true
    (fs.Tech.nmos.Mosfet.vth0 < Tech.c35.Tech.nmos.Mosfet.vth0);
  Alcotest.(check bool) "fs: slow pmos" true
    (fs.Tech.pmos.Mosfet.vth0 > Tech.c35.Tech.pmos.Mosfet.vth0)

let test_corner_names () =
  List.iter
    (fun c ->
      match Corner.of_string (Corner.to_string c) with
      | Some c' when c' = c -> ()
      | _ -> Alcotest.fail "corner name roundtrip")
    Corner.all

let test_mc_run_collects () =
  let rng = Rng.create 3 in
  let { Montecarlo.results; _ } =
    Montecarlo.run ~samples:100 ~rng (fun r ->
        let x = Rng.float r in
        if x < 0.25 then None else Some x)
  in
  Alcotest.(check bool) "some dropped" true (Array.length results < 100);
  Alcotest.(check bool) "most kept" true (Array.length results > 50)

let test_mc_deterministic () =
  let go () =
    let rng = Rng.create 11 in
    Montecarlo.run ~samples:20 ~rng (fun r -> Some (Rng.float r))
  in
  Alcotest.(check bool) "repeatable" true (go () = go ())

let test_mc_parallel_matches_serial () =
  let f (r : Rng.t) =
    let x = Rng.float r in
    if x < 0.2 then None else Some (x +. Rng.float r)
  in
  let serial = Montecarlo.run ~samples:64 ~rng:(Rng.create 21) f in
  let parallel =
    Pool.with_pool ~jobs:2 (fun pool ->
        Montecarlo.run ~pool ~samples:64 ~rng:(Rng.create 21) f)
  in
  Alcotest.(check bool) "identical results" true (serial = parallel)

let test_mc_parallel_circuit_evaluation () =
  (* the real workload: perturbed circuit evaluations across domains *)
  let module Tb = Yield_circuits.Ota_testbench in
  let session = Tb.session Yield_circuits.Ota.default_params in
  let spec = Variation.default_spec in
  let eval r =
    Option.map
      (fun (p : Tb.perf) -> p.Tb.gain_db)
      (Tb.evaluate_in_session session ~spec ~rng:r)
  in
  let serial = Montecarlo.run ~samples:8 ~rng:(Rng.create 9) eval in
  let parallel =
    Pool.with_pool ~jobs:2 (fun pool ->
        Montecarlo.run ~pool ~samples:8 ~rng:(Rng.create 9) eval)
  in
  Alcotest.(check bool) "same gains" true (serial = parallel)

let test_yield_estimate () =
  let e = Montecarlo.estimate_yield ~pass:95 ~total:100 in
  check_float "point estimate" 0.95 e.Montecarlo.yield;
  Alcotest.(check bool) "ci contains estimate" true
    (e.Montecarlo.ci_low <= 0.95 && 0.95 <= e.Montecarlo.ci_high);
  Alcotest.(check bool) "ci nontrivial" true
    (e.Montecarlo.ci_low > 0.85 && e.Montecarlo.ci_high < 1.0);
  let full = Montecarlo.estimate_yield ~pass:100 ~total:100 in
  check_float "full yield" 1. full.Montecarlo.yield;
  Alcotest.(check bool) "full-yield ci below 1" true
    (full.Montecarlo.ci_low < 1.)

let test_yield_invalid () =
  (match Montecarlo.estimate_yield ~pass:0 ~total:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on empty");
  match Montecarlo.estimate_yield ~pass:5 ~total:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected failure on pass > total"

let test_spread_pct () =
  (* constant sample: spread collapses to |mean - nominal| envelope *)
  let xs = Array.make 50 10. in
  check_float "constant at nominal" 0. (Montecarlo.spread_pct xs ~nominal:10.);
  let shifted = Montecarlo.spread_pct xs ~nominal:9. in
  check_float ~eps:1e-6 "constant off nominal" (100. *. 1. /. 9.) shifted

let prop_spread_nonnegative =
  QCheck.Test.make ~count:100 ~name:"spread_pct is non-negative"
    QCheck.(pair (int_bound 10000) (float_range 1. 100.))
    (fun (seed, nominal) ->
      let rng = Rng.create seed in
      let xs = Array.init 30 (fun _ -> nominal +. Rng.gaussian rng) in
      Montecarlo.spread_pct xs ~nominal >= 0.)

let suites =
  [
    ( "process.tech",
      [ Alcotest.test_case "c35 sanity" `Quick test_tech_sanity ] );
    ( "process.variation",
      [
        Alcotest.test_case "pelgrom scaling" `Quick test_pelgrom_scaling;
        Alcotest.test_case "zero spec identity" `Quick test_zero_spec_is_identity;
        Alcotest.test_case "scale_spec" `Quick test_scale_spec;
        Alcotest.test_case "perturb circuit" `Quick test_perturb_circuit_structure;
        Alcotest.test_case "perturbation statistics" `Slow
          test_perturbation_statistics;
      ] );
    ( "process.corner",
      [
        Alcotest.test_case "directions" `Quick test_corner_directions;
        Alcotest.test_case "mixed corner" `Quick test_corner_fs_mixed;
        Alcotest.test_case "name roundtrip" `Quick test_corner_names;
      ] );
    ( "process.montecarlo",
      [
        Alcotest.test_case "run collects" `Quick test_mc_run_collects;
        Alcotest.test_case "deterministic" `Quick test_mc_deterministic;
        Alcotest.test_case "parallel matches serial" `Quick test_mc_parallel_matches_serial;
        Alcotest.test_case "parallel circuit eval" `Slow test_mc_parallel_circuit_evaluation;
        Alcotest.test_case "yield estimate" `Quick test_yield_estimate;
        Alcotest.test_case "yield invalid" `Quick test_yield_invalid;
        Alcotest.test_case "spread pct" `Quick test_spread_pct;
        QCheck_alcotest.to_alcotest prop_spread_nonnegative;
      ] );
  ]
