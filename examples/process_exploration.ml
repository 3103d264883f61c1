(* Exploring the process-variation substrate: corners, Monte Carlo
   histograms, and the Pelgrom area law — the machinery behind the paper's
   variation model (§3.4).

   Run with:  dune exec examples/process_exploration.exe *)

module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Tech = Yield_process.Tech
module Corner = Yield_process.Corner
module Variation = Yield_process.Variation
module Montecarlo = Yield_process.Montecarlo
module Mosfet = Yield_spice.Mosfet
module Summary = Yield_stats.Summary
module Rng = Yield_stats.Rng

let params = Ota.default_params

let () =
  (* 1. corners: the deterministic envelope *)
  print_endline "--- corners (3 sigma global) ---";
  List.iter
    (fun corner ->
      let tech = Corner.apply Variation.default_spec corner Tech.c35 in
      let conditions = { Tb.default_conditions with Tb.tech } in
      match Tb.evaluate ~conditions params with
      | Some p ->
          Printf.printf "%-3s gain %6.2f dB  pm %6.2f deg\n"
            (Corner.to_string corner) p.Tb.gain_db p.Tb.phase_margin_deg
      | None -> Printf.printf "%-3s failed\n" (Corner.to_string corner))
    Corner.all;

  (* 2. Monte Carlo: the statistical distribution and a gain histogram *)
  print_endline "\n--- Monte Carlo (200 samples) ---";
  let rng = Rng.create 41 in
  let session = Tb.session params in
  let { Montecarlo.results; _ } =
    Montecarlo.run ~samples:200 ~rng (fun r ->
        Tb.evaluate_in_session session ~spec:Variation.default_spec ~rng:r)
  in
  let gains = Array.map (fun p -> p.Tb.gain_db) results in
  let s = Summary.of_array gains in
  Printf.printf "gain: mean %.3f dB, sd %.3f dB over %d samples\n"
    (Summary.mean s) (Summary.stddev s) (Summary.count s);
  let h = Summary.histogram ~bins:12 gains in
  Array.iteri
    (fun i count ->
      Printf.printf "  %7.3f..%7.3f %s\n" h.Summary.edges.(i)
        h.Summary.edges.(i + 1)
        (String.make count '#'))
    h.Summary.counts;

  (* 3. Pelgrom's law: threshold mismatch shrinks with sqrt(W L) *)
  print_endline "\n--- mismatch vs device area (Pelgrom) ---";
  List.iter
    (fun (w, l) ->
      let sigma =
        Variation.mismatch_sigma_vth Variation.default_spec Mosfet.Nmos ~w ~l
      in
      Printf.printf "W=%4.0fum L=%4.1fum  area %7.1f um^2  sigma(dVth) %6.3f mV\n"
        (w *. 1e6) (l *. 1e6)
        (w *. l *. 1e12)
        (sigma *. 1e3))
    [ (10e-6, 0.35e-6); (10e-6, 1e-6); (30e-6, 1e-6); (60e-6, 4e-6) ];

  (* 4. how the performance spread scales if the process were noisier *)
  print_endline "\n--- performance spread vs variation scale ---";
  match Tb.evaluate params with
  | None -> print_endline "nominal evaluation failed"
  | Some nominal ->
      List.iter
        (fun k ->
          let spec = Variation.scale_spec k Variation.default_spec in
          let rng = Rng.create 7 in
          let { Montecarlo.results = rs; _ } =
            Montecarlo.run ~samples:80 ~rng (fun r ->
                Tb.evaluate_in_session session ~spec ~rng:r)
          in
          let gains = Array.map (fun p -> p.Tb.gain_db) rs in
          Printf.printf "sigma x%-4.2g  dGain %5.2f %%\n" k
            (Montecarlo.spread_pct gains ~nominal:nominal.Tb.gain_db))
        [ 0.25; 0.5; 1.; 2.; 4. ]
