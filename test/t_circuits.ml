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

let test_session_sample_differs () =
  let rng = Rng.create 3 in
  let nominal = Option.get (Tb.evaluate Ota.default_params) in
  let sampled =
    Option.get
      (Tb.evaluate_in_session
         (Tb.session Ota.default_params)
         ~spec:Variation.default_spec ~rng)
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

module Gtb = Yield_circuits.Testbench
module Ac = Yield_spice.Ac

let perf_fields (p : Gtb.perf) =
  [| p.gain_db; p.phase_margin_deg; p.unity_gain_hz; p.f3db_hz; p.rout_est |]

(* agreement on [None], and bit for bit on all five fields *)
let check_perf_bits what expect got =
  match (expect, got) with
  | None, None -> ()
  | Some e, Some g ->
      Array.iteri
        (fun i x ->
          Alcotest.(check int64)
            (Printf.sprintf "%s field %d" what i)
            (Int64.bits_of_float x)
            (Int64.bits_of_float (perf_fields g).(i)))
        (perf_fields e)
  | _ -> Alcotest.failf "%s: outcome differs" what

let sweep_freqs = Gtb.freqs_of Gtb.default_conditions

let bode_of response = { Ac.freqs = sweep_freqs; response }

(* a two-pole response of DC gain [a0], and poles [p1] and [p2] Hz *)
let two_pole a0 p1 p2 =
  bode_of
    (Array.map
       (fun f ->
         let pole p = Complex.div Complex.one { Complex.re = 1.; im = f /. p } in
         Complex.mul { Complex.re = a0; im = 0. } (Complex.mul (pole p1) (pole p2)))
       sweep_freqs)

let constant z = bode_of (Array.map (fun _ -> z) sweep_freqs)

(* responses with no unity crossing, a zero response (gain -inf) and NaN,
   next to three ordinary ones *)
let synthetic_bodes () =
  [
    two_pole 1e3 1e3 1e7;
    two_pole 1e4 10. 1e5;
    two_pole 1.2 1e6 1e8;
    two_pole 0.5 1e3 1e7;
    constant Complex.zero;
    constant { Complex.re = nan; im = 0. };
  ]

(* full sweeps of three OTA sizings and the default Miller design *)
let circuit_bodes () =
  List.filter_map Fun.id
    [
      Tb.bode Ota.default_params;
      Tb.bode { Ota.default_params with Ota.w1 = 2. *. Ota.default_params.Ota.w1 };
      Tb.bode { Ota.default_params with Ota.l2 = 3. *. Ota.default_params.Ota.l2 };
      Yield_circuits.Miller_testbench.bode Yield_circuits.Miller.default_params;
    ]

(* perf_of_bode measures the sweep in one pass; it must agree bit for bit
   with the Measure functions it replaces, each of which recomputes the
   magnitudes (and phase_margin_deg the unity crossing) on its own *)
let test_perf_of_bode_one_pass () =
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
  let circuit_bodes = circuit_bodes () in
  Alcotest.(check int) "circuit bodes" 4 (List.length circuit_bodes);
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
                (Int64.bits_of_float (perf_fields got).(i)))
            expect
      | _ -> Alcotest.failf "bode %d: outcome differs" k)
    (circuit_bodes @ synthetic_bodes ())

(* --- the measure-directed sweep --- *)

(* the prefix of a full sweep that Testbench.sweep_stop keeps, driven the
   way Ac.sweep drives it: point k's response is written into the
   response before the rule sees it, after point k it answers how many
   more points it needs, and no answer may end the sweep before a point
   an earlier answer asked for *)
let stopped_prefix (b : Ac.bode) =
  let stop = Gtb.sweep_stop in
  let n = Array.length b.Ac.response in
  let r = Yield_spice.Mna.response n in
  let rec go k promised =
    r.Yield_spice.Mna.re.(k) <- b.Ac.response.(k).Complex.re;
    r.Yield_spice.Mna.im.(k) <- b.Ac.response.(k).Complex.im;
    let need = stop r k in
    if need < 0 || k + need < promised then
      Alcotest.failf "sweep_stop answered %d at point %d, inside a run promised to point %d"
        need k promised;
    let last = Stdlib.min (n - 1) (k + need) in
    if last = k then k + 1 else go (k + 1) last
  in
  let m = go 0 0 in
  { Ac.freqs = Array.sub b.Ac.freqs 0 m; response = Array.sub b.Ac.response 0 m }

(* the rule, restated over the full sweep: one point when the gain is not
   finite; else up to the later of point i+2 past the first 0 dB pair
   (i, i+1) and the end j+1 of the first (gain - 3 dB) pair; else all *)
let expected_length (b : Ac.bode) =
  let mags = Measure.magnitudes_db b in
  let n = Array.length mags in
  let first_pair level =
    let rec scan i =
      if i >= n - 1 then None
      else if mags.(i) >= level && mags.(i + 1) < level then Some i
      else scan (i + 1)
    in
    scan 0
  in
  if not (Float.is_finite mags.(0)) then 1
  else
    match (first_pair 0., first_pair (mags.(0) -. 3.)) with
    | Some i, Some j -> Stdlib.min n (Stdlib.max (i + 3) (j + 2))
    | _ -> n

(* a response whose magnitude falls linearly in dB from [db0], [slope]
   dB per point, and whose phase falls 2 degrees per point *)
let db_ramp ?(nan_at = []) db0 slope =
  bode_of
    (Array.mapi
       (fun k _ ->
         if List.mem k nan_at then { Complex.re = nan; im = nan }
         else
           Complex.polar
             (10. ** ((db0 -. (slope *. float_of_int k)) /. 20.))
             (-.Float.pi *. float_of_int k /. 90.))
       sweep_freqs)

let test_sweep_stop_synthetic () =
  let n = Array.length sweep_freqs in
  let check_case name ?length b =
    let prefix = stopped_prefix b in
    let got = Array.length prefix.Ac.response in
    Alcotest.(check int) (name ^ ": rule") (expected_length b) got;
    Option.iter (fun l -> Alcotest.(check int) (name ^ ": points") l got) length;
    check_perf_bits name
      (Gtb.perf_of_bode Gtb.default_conditions b)
      (Gtb.perf_of_bode Gtb.default_conditions prefix)
  in
  List.iteri
    (fun k b -> check_case (Printf.sprintf "synthetic %d" k) b)
    (synthetic_bodes ());
  List.iteri (fun k b -> check_case (Printf.sprintf "circuit %d" k) b) (circuit_bodes ());
  Alcotest.(check int) "the sweep has 81 points" 81 n;
  (* a single pole well inside the band stops short of the end *)
  let early = two_pole 1e3 1e3 1e9 in
  Alcotest.(check bool) "a plain response stops early" true
    (Array.length (stopped_prefix early).Ac.response < n);
  check_case "plain" early;
  check_case "no unity crossing" ~length:n (two_pole 0.5 1e3 1e7);
  (* 1.6 dB of gain: the -3 dB level sits below 0 dB, so its crossing
     (pair 4, 5) comes after fu's (pair 2, 3) and decides the stop *)
  check_case "gain below 3 dB" ~length:6 (db_ramp 1.6 0.7);
  (* 0.26 dB per point: the -3 dB pair is (11, 12), and these gains put
     the 0 dB pair at (79, 80), (78, 79) and (77, 78) *)
  check_case "0 dB crossing in the last pair" ~length:n (db_ramp 20.6 0.26);
  check_case "0 dB crossing one pair earlier" ~length:n (db_ramp 20.4 0.26);
  check_case "0 dB crossing two pairs earlier" ~length:80 (db_ramp 20.15 0.26);
  check_case "non-finite point 0" ~length:1
    (bode_of
       (Array.mapi
          (fun k z -> if k = 0 then Complex.zero else z)
          (two_pole 1e3 1e3 1e7).Ac.response));
  check_case "infinite gain" ~length:1
    (constant { Complex.re = infinity; im = 0. });
  check_case "NaN point 0" ~length:1 (constant { Complex.re = nan; im = 0. });
  check_case "all-zero response" ~length:1 (constant Complex.zero);
  (* 0.45 dB per point from 20.2 dB: the 0 dB pair is (44, 45).  A NaN
     point before the crossings delays nothing; one on the 0 dB crossing
     hides it, so the whole sweep runs *)
  check_case "NaN mid-sweep" ~length:47 (db_ramp ~nan_at:[ 5 ] 20.2 0.45);
  check_case "NaN on the crossing" ~length:n
    (db_ramp ~nan_at:[ 44 ] 20.2 0.45);
  (* fu is the rounded log-interpolation on the 0 dB pair (i, i+1); with
     point i+1 a hair below 0 dB it rounds onto point i+1 itself, the
     edge the extra swept point i+2 guards *)
  let i = 46 in
  let onto =
    bode_of
      (Array.mapi
         (fun k _ ->
           let x = float_of_int k in
           let db =
             if k <= i then 30. -. (28. *. x /. float_of_int i)
             else -2e-15 -. float_of_int (k - i - 1)
           in
           Complex.polar (10. ** (db /. 20.)) (-.Float.pi *. x /. 90.))
         sweep_freqs)
  in
  check_case "fu on point i+1" ~length:(i + 3) onto;
  Alcotest.(check (option (float 0.))) "fu is point i+1"
    (Some sweep_freqs.(i + 1))
    (Option.map
       (fun (p : Gtb.perf) -> p.unity_gain_hz)
       (Gtb.perf_of_bode Gtb.default_conditions onto))

(* random sizings drawn uniformly (log-uniformly on Log ranges) *)
let random_params (ranges : Yield_ga.Genome.range array) rng =
  Array.map
    (fun (g : Yield_ga.Genome.range) ->
      let u = Rng.float rng in
      match g.Yield_ga.Genome.scale with
      | Yield_ga.Genome.Linear -> g.lo +. (u *. (g.hi -. g.lo))
      | Log -> g.lo *. ((g.hi /. g.lo) ** u))
    ranges

let ac_points = Yield_obs.Metrics.counter "ac.points"

(* the stopped sweep of [evaluate] against perf_of_bode of the full
   [bode], over [n] random designs *)
let check_random_designs name ~n ~seed ~ranges ~evaluate ~bode =
  let rng = Rng.create seed in
  let measured = ref 0 and points = ref 0 in
  for d = 1 to n do
    let p = random_params ranges rng in
    let full_bode = bode p in
    (* the rule keeps its promises on every circuit bode *)
    Option.iter (fun b -> ignore (stopped_prefix b)) full_bode;
    let full = Option.bind full_bode (Gtb.perf_of_bode Gtb.default_conditions) in
    let before = Yield_obs.Metrics.value ac_points in
    let stopped = evaluate p in
    points := !points + (Yield_obs.Metrics.value ac_points - before);
    if stopped <> None then incr measured;
    check_perf_bits (Printf.sprintf "%s design %d" name d) full stopped
  done;
  Alcotest.(check bool) (name ^ ": most designs measured") true
    (!measured > n / 2);
  Alcotest.(check bool) (name ^ ": fewer points than full sweeps") true
    (!points < n * Array.length sweep_freqs)

let test_stopped_sweep_random_designs () =
  let module Mtb = Yield_circuits.Miller_testbench in
  let module Miller = Yield_circuits.Miller in
  check_random_designs "ota" ~n:1000 ~seed:16 ~ranges:Ota.param_ranges
    ~evaluate:(fun a -> Tb.evaluate (Ota.params_of_array a))
    ~bode:(fun a -> Tb.bode (Ota.params_of_array a));
  check_random_designs "miller" ~n:1000 ~seed:17 ~ranges:Miller.param_ranges
    ~evaluate:(fun a -> Mtb.evaluate (Miller.params_of_array a))
    ~bode:(fun a -> Mtb.bode (Miller.params_of_array a))

(* DC (from [start] when given) and the full sweep of a session circuit
   under one sample's models *)
let full_sweep_perf ?start ~sys ~models circuit =
  match Dcop.solve_with_retry ?start ~sys ~models circuit with
  | Error _ -> None
  | Ok op ->
      Gtb.perf_of_bode Gtb.default_conditions
        (Ac.transfer_by_name ~sys circuit op ~out:"out" ~freqs:sweep_freqs)

(* session samples against DC + the full sweep under the same per-sample
   models, on dense and csr sessions; a csr session starts each sample's
   Newton at its nominal operating point, so the reference starts there
   too *)
module Samples (A : Yield_circuits.Amplifier.S) = struct
  module T = Gtb.Make (A)

  let check name ~designs ~samples ~seed =
    let rng = Rng.create seed in
    let spec = Variation.default_spec in
    let measured = ref 0 in
    for d = 1 to designs do
      let p = A.params_of_array (random_params A.param_ranges rng) in
      List.iter
        (fun solver ->
          let s = T.session ~solver p in
          let circuit = T.session_circuit s and sys = T.session_sys s in
          let start =
            match solver with
            | Yield_numeric.Linsys.Dense -> None
            | Csr -> (
                match Dcop.solve ~sys circuit with
                | Ok op -> Some op.Dcop.x
                | Error _ -> None)
          in
          for k = 1 to samples do
            let r = Rng.split rng in
            let full =
              full_sweep_perf ?start ~sys
                ~models:(Variation.overrides spec (Rng.copy r) circuit)
                circuit
            in
            let stopped = T.evaluate_in_session s ~spec ~rng:r in
            if stopped <> None then incr measured;
            check_perf_bits
              (Printf.sprintf "%s %s design %d sample %d" name
                 (T.session_solver_name s) d k)
              full stopped
          done)
        [ Yield_numeric.Linsys.Dense; Yield_numeric.Linsys.Csr ]
    done;
    Alcotest.(check bool) (name ^ ": most samples measured") true
      (!measured > designs * samples)
end

let test_stopped_sweep_session_samples () =
  let module O = Samples (Ota) in
  let module M = Samples (Yield_circuits.Miller) in
  O.check "ota" ~designs:4 ~samples:128 ~seed:18;
  M.check "miller" ~designs:4 ~samples:128 ~seed:19

(* ---------- warm-started csr samples ----------

   A csr session starts each sample's Newton at its nominal operating
   point; a dense one at the nodeset guess.  Warm and cold runs converge
   to the same operating point to within Newton's tolerance, so every perf
   field agrees to 1e-9 relative, and the warm start saves iterations. *)

let c_warm_starts = Yield_obs.Metrics.counter "dcop.warm_starts"

let c_warm_fallbacks = Yield_obs.Metrics.counter "dcop.warm_fallbacks"

let c_dcop_iterations = Yield_obs.Metrics.counter "dcop.iterations"

let close_perf what (expect : Gtb.perf option) (got : Gtb.perf option) =
  match (expect, got) with
  | None, None -> ()
  | Some e, Some g ->
      Array.iteri
        (fun i x ->
          let y = (perf_fields g).(i) in
          let ok =
            (Float.is_nan x && Float.is_nan y)
            || Float.abs (x -. y)
               <= 1e-9 *. Float.max (Float.abs x) (Float.abs y)
          in
          if not ok then
            Alcotest.failf "%s field %d: cold %.17g, warm %.17g" what i x y)
        (perf_fields e)
  | _ -> Alcotest.failf "%s: outcome differs" what

module Warm (A : Yield_circuits.Amplifier.S) = struct
  module T = Gtb.Make (A)

  let against_cold name ~designs ~samples ~seed =
    let module M = Yield_obs.Metrics in
    let rng = Rng.create seed in
    let spec = Variation.default_spec in
    let measured = ref 0 and warm_iters = ref 0 and cold_iters = ref 0 in
    for d = 1 to designs do
      let p = A.params_of_array (random_params A.param_ranges rng) in
      let s = T.session ~solver:Yield_numeric.Linsys.Csr p in
      let circuit = T.session_circuit s in
      for k = 1 to samples do
        let r = Rng.split rng in
        let models = Variation.overrides spec (Rng.copy r) circuit in
        let it0 = M.value c_dcop_iterations in
        let reference =
          full_sweep_perf ~sys:(T.session_sys s) ~models circuit
        in
        let it1 = M.value c_dcop_iterations and w0 = M.value c_warm_starts in
        let warm = T.evaluate_in_session s ~spec ~rng:r in
        Alcotest.(check int)
          (Printf.sprintf "%s design %d sample %d: one warm start" name d k)
          (w0 + 1) (M.value c_warm_starts);
        cold_iters := !cold_iters + (it1 - it0);
        warm_iters := !warm_iters + (M.value c_dcop_iterations - it1);
        if warm <> None then incr measured;
        close_perf
          (Printf.sprintf "%s design %d sample %d" name d k)
          reference warm
      done
    done;
    Alcotest.(check bool) (name ^ ": most samples measured") true
      (!measured > designs * samples / 2);
    Alcotest.(check bool)
      (Printf.sprintf "%s: fewer Newton iterations warm (%d) than cold (%d)"
         name !warm_iters !cold_iters)
      true
      (2 * !warm_iters < !cold_iters)

  (* dense sessions take no start *)
  let dense_stays_cold () =
    let module M = Yield_obs.Metrics in
    let s = T.session A.default_params in
    let w0 = M.value c_warm_starts in
    for seed = 1 to 8 do
      ignore
        (T.evaluate_in_session s ~spec:Variation.default_spec
           ~rng:(Rng.create seed))
    done;
    Alcotest.(check int) "no warm start on dense" w0 (M.value c_warm_starts)
end

let test_warm_against_cold () =
  let module O = Warm (Ota) in
  let module M = Warm (Yield_circuits.Miller) in
  O.against_cold "ota" ~designs:4 ~samples:128 ~seed:21;
  M.against_cold "miller" ~designs:4 ~samples:128 ~seed:22;
  O.dense_stays_cold ();
  M.dense_stays_cold ()

(* a start that cannot converge costs one failed run, counted as a
   fallback, and then the cold chain runs with the cold chain's bits *)
let test_nan_start_falls_back () =
  let module M = Yield_obs.Metrics in
  let module T = Gtb.Make (Yield_circuits.Miller) in
  List.iter
    (fun backend ->
      let circuit, _ = T.build Yield_circuits.Miller.default_params in
      let sys = Yield_spice.Mna.sys ~backend circuit in
      let n = Yield_spice.Mna.size (Yield_spice.Mna.sys_layout sys) in
      let start = Array.make n Float.nan in
      for seed = 1 to 4 do
        let models =
          Variation.overrides Variation.default_spec (Rng.create seed) circuit
        in
        let cold = Dcop.solve ~sys ~models circuit in
        let w0 = M.value c_warm_starts and f0 = M.value c_warm_fallbacks in
        let warm = Dcop.solve ~start ~sys ~models circuit in
        Alcotest.(check int) "one warm start" (w0 + 1) (M.value c_warm_starts);
        Alcotest.(check int) "one fallback" (f0 + 1) (M.value c_warm_fallbacks);
        Alcotest.(check bool) "start untouched" true
          (Array.for_all Float.is_nan start);
        match (cold, warm) with
        | Ok c, Ok w ->
            Alcotest.(check int) "cold iterations" c.Dcop.iterations
              w.Dcop.iterations;
            Array.iteri
              (fun i x ->
                Alcotest.(check int64)
                  (Printf.sprintf "unknown %d" i)
                  (Int64.bits_of_float x)
                  (Int64.bits_of_float w.Dcop.x.(i)))
              c.Dcop.x
        | _ -> Alcotest.fail "nan start changed the outcome"
      done;
      Alcotest.check_raises "start of the wrong size"
        (Invalid_argument "Dcop.solve: start is not of the system's size")
        (fun () -> ignore (Dcop.solve ~start:[| 0. |] ~sys circuit)))
    [ Yield_numeric.Linsys.Dense; Csr ]

(* with dcop.newton armed, a warm csr sample still takes one hit per solve
   and goes on to gmin stepping from the nodeset guess, as a cold solve
   does: no warm run is begun *)
let test_newton_fault_warm_sample () =
  let module Fault = Yield_resilience.Fault in
  let module M = Yield_obs.Metrics in
  let module T = Gtb.Make (Yield_circuits.Miller) in
  let newton_hits = M.counter "fault.dcop.newton.hits" in
  let gmin_hits = M.counter "fault.dcop.gmin.hits" in
  let solve_hits = M.counter "fault.dcop.solve.hits" in
  let h0 = M.value solve_hits in
  let s =
    T.session ~solver:Yield_numeric.Linsys.Csr
      Yield_circuits.Miller.default_params
  in
  Alcotest.(check int) "the nominal solve is one checked solve" (h0 + 1)
    (M.value solve_hits);
  let circuit = T.session_circuit s and sys = T.session_sys s in
  Fun.protect ~finally:Fault.reset (fun () ->
      Fault.arm "dcop.newton" (Fault.Every 1);
      for seed = 1 to 4 do
        let r = Rng.create seed in
        let models =
          Variation.overrides Variation.default_spec (Rng.copy r) circuit
        in
        let reference = full_sweep_perf ~sys ~models circuit in
        let n0 = M.value newton_hits and g0 = M.value gmin_hits in
        let w0 = M.value c_warm_starts in
        let warm =
          T.evaluate_in_session s ~spec:Variation.default_spec ~rng:r
        in
        Alcotest.(check int) "one dcop.newton hit" (n0 + 1)
          (M.value newton_hits);
        Alcotest.(check int) "on to gmin stepping" (g0 + 1) (M.value gmin_hits);
        Alcotest.(check int) "no warm run begun" w0 (M.value c_warm_starts);
        check_perf_bits (Printf.sprintf "seed %d" seed) reference warm
      done)

(* the ac.solve fault still fires once per evaluation, before anything is
   factored, and the evaluation fails instead of crashing *)
let test_ac_fault_stopped_sweep () =
  let module Fault = Yield_resilience.Fault in
  let module Metrics = Yield_obs.Metrics in
  let module T = Gtb.Make (Ota) in
  let hits = Metrics.counter "fault.ac.solve.hits" in
  let session = T.session Ota.default_params in
  Fun.protect ~finally:Fault.reset (fun () ->
      Fault.arm "ac.solve" (Fault.Every 1);
      let once what f =
        let h = Metrics.value hits and pts = Metrics.value ac_points in
        Alcotest.(check bool) (what ^ " fails") true (f () = None);
        Alcotest.(check int) (what ^ ": one hit") (h + 1) (Metrics.value hits);
        Alcotest.(check int) (what ^ ": nothing factored") pts
          (Metrics.value ac_points)
      in
      for _ = 1 to 3 do
        once "evaluate" (fun () -> T.evaluate Ota.default_params);
        once "session sample" (fun () ->
            T.evaluate_in_session session ~spec:Variation.default_spec
              ~rng:(Rng.create 5))
      done)

(* ac.points counts the frequencies each transfer factored *)
let test_ac_points_counter () =
  let module Metrics = Yield_obs.Metrics in
  let full = Option.get (Tb.bode Ota.default_params) in
  let before = Metrics.value ac_points in
  ignore (Tb.bode Ota.default_params);
  Alcotest.(check int) "full sweep" 81 (Metrics.value ac_points - before);
  let before = Metrics.value ac_points in
  ignore (Tb.evaluate Ota.default_params);
  let swept = Metrics.value ac_points - before in
  Alcotest.(check int) "stopped sweep"
    (Array.length (stopped_prefix full).Ac.response)
    swept;
  Alcotest.(check bool) "stops short of the end" true (swept < 81)

(* --- filter --- *)

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

(* --- the paired sweep --- *)

(* the reference sweep, point by point: each frequency factored on its
   own through [factor] and solved for the whole solution, the rule
   consulted after every point and the sweep ended at its first zero
   answer *)
let point_by_point ?stop sys circuit op ~out ~freqs =
  let module Mna = Yield_spice.Mna in
  let cs = Mna.sys_complex sys in
  let rhs = Mna.assemble_ac_into cs circuit (Mna.sys_layout sys) ~ops:(Dcop.mos_op op) in
  let n = Array.length freqs in
  let response = Array.make n Complex.zero in
  let r = Mna.response n in
  let rec go k =
    if k = n then n
    else begin
      let x = cs.Yield_numeric.Linsys.factor ~omega:(2. *. Float.pi *. freqs.(k)) rhs in
      let z = if out = Yield_spice.Device.ground then Complex.zero else x.(out - 1) in
      response.(k) <- z;
      r.Mna.re.(k) <- z.re;
      r.Mna.im.(k) <- z.im;
      match stop with Some stop when stop r k = 0 -> k + 1 | _ -> go (k + 1)
    end
  in
  let m = go 0 in
  { Ac.freqs = Array.sub freqs 0 m; response = Array.sub response 0 m }

let ac_paired = Yield_obs.Metrics.counter "ac.paired"

(* Ac.transfer against the point-by-point sweep on the OTA, Miller,
   transistor-level filter and rc_lowpass.cir circuits, on both backends,
   full and stopped at Testbench.sweep_stop, on grids of 81, 80, 2 and 1
   points: the same bits, and an ac.points delta of the points swept *)
let test_paired_sweep_circuits () =
  let module Linsys = Yield_numeric.Linsys in
  let module Metrics = Yield_obs.Metrics in
  let rc =
    let path = T_analyse2.fixture "examples/netlists/rc_lowpass.cir" in
    (Yield_spice.Netlist.parse (In_channel.with_open_bin path In_channel.input_all), "out")
  in
  let circuits =
    [
      ("ota", Tb.build Ota.default_params);
      ("miller", Yield_circuits.Miller_testbench.build Yield_circuits.Miller.default_params);
      ("filter", Filter.build_transistor Ota.default_params good_caps);
      ("rc_lowpass", rc);
    ]
  in
  let grids =
    [ sweep_freqs; Array.sub sweep_freqs 0 80; Array.sub sweep_freqs 0 2; Array.sub sweep_freqs 40 1 ]
  in
  List.iter
    (fun (name, (circuit, out_name)) ->
      (* one dense operating point: the sweeps only read its devices *)
      let op =
        match Dcop.solve circuit with
        | Ok op -> op
        | Error e -> Alcotest.failf "%s: %s" name (Dcop.error_to_string e)
      in
      List.iter
        (fun backend ->
          let sys = Yield_spice.Mna.sys ~backend circuit in
          let node = Circuit.node circuit out_name in
          let outs = if name = "rc_lowpass" then [ node; Yield_spice.Device.ground ] else [ node ] in
          List.iter
            (fun out ->
              List.iter
                (fun freqs ->
                  List.iter
                    (fun stopped ->
                      let stop () = if stopped then Some Gtb.sweep_stop else None in
                      let what =
                        Printf.sprintf "%s %s out %d, %d points%s" name
                          (Linsys.backend_name backend) out (Array.length freqs)
                          (if stopped then ", stopped" else "")
                      in
                      let expect = point_by_point ?stop:(stop ()) sys circuit op ~out ~freqs in
                      let points = Metrics.value ac_points and paired = Metrics.value ac_paired in
                      let got = Ac.transfer ~sys ?stop:(stop ()) circuit op ~out ~freqs in
                      let swept = Metrics.value ac_points - points in
                      let pairs = Metrics.value ac_paired - paired in
                      let m = Array.length expect.Ac.response in
                      Alcotest.(check int) (what ^ ": points") m (Array.length got.Ac.response);
                      Alcotest.(check int) (what ^ ": ac.points") m swept;
                      Alcotest.(check bool) (what ^ ": freqs") true (got.Ac.freqs = expect.Ac.freqs);
                      Array.iteri
                        (fun k (e : Complex.t) ->
                          let g = got.Ac.response.(k) in
                          Alcotest.(check (pair int64 int64))
                            (Printf.sprintf "%s: point %d" what k)
                            (Int64.bits_of_float e.re, Int64.bits_of_float e.im)
                            (Int64.bits_of_float g.re, Int64.bits_of_float g.im))
                        expect.Ac.response;
                      (* point 0 goes alone, and so does the last of an even count *)
                      if stopped then
                        Alcotest.(check bool) (what ^ ": ac.paired") true
                          (pairs mod 2 = 0 && pairs < Stdlib.max 1 m)
                      else Alcotest.(check int) (what ^ ": ac.paired") (2 * ((m - 1) / 2)) pairs)
                    [ false; true ])
                grids)
            outs)
        [ Linsys.Dense; Linsys.Csr ])
    circuits

let suites =
  [
    ( "circuits.ota",
      [
        Alcotest.test_case "param roundtrip" `Quick test_param_roundtrip;
        Alcotest.test_case "table 1 ranges" `Quick test_param_ranges_match_table1;
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
        Alcotest.test_case "sampled evaluation" `Quick test_session_sample_differs;
        Alcotest.test_case "objectives order" `Quick test_objectives_order;
        Alcotest.test_case "perf_of_bode in one pass" `Quick
          test_perf_of_bode_one_pass;
        Alcotest.test_case "sweep stop on synthetic responses" `Quick
          test_sweep_stop_synthetic;
        Alcotest.test_case "stopped sweep on random designs" `Quick
          test_stopped_sweep_random_designs;
        Alcotest.test_case "stopped sweep on session samples" `Quick
          test_stopped_sweep_session_samples;
        Alcotest.test_case "warm csr samples against cold" `Quick
          test_warm_against_cold;
        Alcotest.test_case "unconverging start falls back" `Quick
          test_nan_start_falls_back;
        Alcotest.test_case "dcop.newton fault on a warm sample" `Quick
          test_newton_fault_warm_sample;
        Alcotest.test_case "ac.solve fault under the stopped sweep" `Quick
          test_ac_fault_stopped_sweep;
        Alcotest.test_case "ac.points counter" `Quick test_ac_points_counter;
        Alcotest.test_case "paired sweep = point-by-point sweep" `Quick
          test_paired_sweep_circuits;
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
