(* Tests for the yield_stats library: RNG determinism, distributions,
   summary statistics. *)

module Rng = Yield_stats.Rng
module Dist = Yield_stats.Dist
module Summary = Yield_stats.Summary

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.float a = Rng.float b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = Array.init 32 (fun _ -> Rng.float parent) in
  let ys = Array.init 32 (fun _ -> Rng.float child) in
  Alcotest.(check bool) "split stream differs" true (xs <> ys)

(* The stream, pinned bit for bit: N floats, an odd number of gaussians
   (so one deviate stays cached), ints, split children, and a stream
   saved in the middle of a Box-Muller pair, encoded as a checkpoint
   encodes it, restored and continued.  The digest was recorded before
   the generator's state moved into a flat buffer; it must never move. *)
let rng_stream_digest () =
  let module Codec = Yield_resilience.Codec in
  let module Json = Yield_obs.Json in
  let b = Buffer.create 65536 in
  let put x = Buffer.add_string b (Printf.sprintf "%h\n" x) in
  let rng = Rng.create 2008 in
  for _ = 1 to 1000 do
    put (Rng.float rng)
  done;
  for _ = 1 to 1001 do
    put (Rng.gaussian rng)
  done;
  for _ = 1 to 500 do
    Buffer.add_string b (string_of_int (Rng.int rng 1_000_003) ^ "\n")
  done;
  for _ = 1 to 50 do
    let child = Rng.split rng in
    put (Rng.float child);
    put (Rng.gaussian child);
    put (Rng.normal child ~mean:1. ~sigma:0.5)
  done;
  (* mid-pair: one gaussian drawn, its partner cached *)
  put (Rng.gaussian rng);
  let saved = Json.to_string (Codec.rng_state (Rng.save rng)) in
  let resumed = Rng.of_state (Codec.to_rng_state (Json.parse saved)) in
  Buffer.add_string b saved;
  let copy = Rng.copy rng in
  for _ = 1 to 101 do
    let x = Rng.gaussian rng in
    put x;
    if Int64.bits_of_float x <> Int64.bits_of_float (Rng.gaussian resumed) then
      Alcotest.fail "the restored stream diverged";
    if Int64.bits_of_float x <> Int64.bits_of_float (Rng.gaussian copy) then
      Alcotest.fail "the copied stream diverged"
  done;
  let again = Rng.create 0 in
  Rng.restore again (Codec.to_rng_state (Json.parse saved));
  put (Rng.gaussian again);
  put (Rng.uniform again (-2.) 3.);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_rng_stream_pin () =
  Alcotest.(check string) "stream digest" "dcad164823f29f31171ce5f89818dc53" (rng_stream_digest ())

let test_rng_uniform_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng 2. 5. in
    if x < 2. || x >= 5. then Alcotest.fail "uniform out of range"
  done

let test_rng_int_range () =
  let rng = Rng.create 5 in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    let k = Rng.int rng 7 in
    if k < 0 || k >= 7 then Alcotest.fail "int out of range";
    seen.(k) <- true
  done;
  Alcotest.(check bool) "all residues seen" true (Array.for_all Fun.id seen)

let test_gaussian_moments () =
  let rng = Rng.create 11 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng) in
  let s = Summary.of_array xs in
  check_float ~eps:0.02 "mean" 0. (Summary.mean s);
  check_float ~eps:0.02 "stddev" 1. (Summary.stddev s)

let test_shuffle_permutes () =
  let rng = Rng.create 13 in
  let a = Array.init 20 Fun.id in
  let b = Array.copy a in
  Rng.shuffle_in_place rng b;
  Array.sort compare b;
  Alcotest.(check (array int)) "same multiset" a b

let test_erf_known_values () =
  check_float ~eps:1e-6 "erf 0" 0. (Dist.erf 0.);
  check_float ~eps:1e-5 "erf 1" 0.8427007929 (Dist.erf 1.);
  check_float ~eps:1e-5 "erf -1" (-0.8427007929) (Dist.erf (-1.));
  check_float ~eps:1e-6 "erf 3" 0.9999779095 (Dist.erf 3.)

let test_normal_cdf_quantile_roundtrip () =
  (* the standard normal's tabulated p-quantiles, mapped to N(1, 2) *)
  List.iter
    (fun (p, z) ->
      check_float ~eps:1e-6
        (Printf.sprintf "roundtrip p=%g" p)
        p
        (Dist.normal_cdf ~mean:1. ~sigma:2. (1. +. (2. *. z))))
    [
      (0.001, -3.090232306167813); (0.01, -2.3263478740408408);
      (0.1, -1.2815515655446008); (0.25, -0.6744897501960817); (0.5, 0.);
      (0.75, 0.6744897501960817); (0.9, 1.2815515655446008);
      (0.99, 2.3263478740408408); (0.999, 3.090232306167813);
    ]

let prop_cdf_monotone =
  QCheck.Test.make ~count:200 ~name:"normal cdf is monotone"
    QCheck.(pair (float_range (-5.) 5.) (float_range (-5.) 5.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b in
      Dist.normal_cdf ~mean:0. ~sigma:1. lo
      <= Dist.normal_cdf ~mean:0. ~sigma:1. hi +. 1e-12)

let test_summary_welford () =
  let s = Summary.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Summary.mean s);
  check_float "variance" (32. /. 7.) (Summary.variance s);
  check_float "min" 2. (Summary.min_value s);
  check_float "max" 9. (Summary.max_value s);
  Alcotest.(check int) "count" 8 (Summary.count s)

let test_summary_empty () =
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Summary.mean Summary.empty))

let test_quantiles () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Summary.median xs);
  check_float "q0" 1. (Summary.quantile xs 0.);
  check_float "q1" 5. (Summary.quantile xs 1.);
  check_float "q25" 2. (Summary.quantile xs 0.25)

let test_histogram () =
  let h = Summary.histogram ~bins:4 [| 0.; 1.; 2.; 3.; 4. |] in
  Alcotest.(check int) "bins" 4 (Array.length h.Summary.counts);
  Alcotest.(check int) "total" 5 (Array.fold_left ( + ) 0 h.Summary.counts);
  check_float "lo edge" 0. h.Summary.edges.(0);
  check_float "hi edge" 4. h.Summary.edges.(4)

let prop_quantile_bounds =
  QCheck.Test.make ~count:200 ~name:"quantile lies within sample range"
    QCheck.(pair (list_of_size Gen.(1 -- 50) (float_range (-100.) 100.))
              (float_range 0.01 0.99))
    (fun (xs, p) ->
      match xs with
      | [] -> true
      | _ ->
          let a = Array.of_list xs in
          let q = Summary.quantile a p in
          let lo = Array.fold_left Float.min infinity a in
          let hi = Array.fold_left Float.max neg_infinity a in
          q >= lo -. 1e-12 && q <= hi +. 1e-12)

let suites =
  [
    ( "stats.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
        Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
        Alcotest.test_case "stream pinned" `Quick test_rng_stream_pin;
      ] );
    ( "stats.dist",
      [
        Alcotest.test_case "erf known values" `Quick test_erf_known_values;
        Alcotest.test_case "cdf/quantile roundtrip" `Quick
          test_normal_cdf_quantile_roundtrip;
        QCheck_alcotest.to_alcotest prop_cdf_monotone;
      ] );
    ( "stats.summary",
      [
        Alcotest.test_case "welford" `Quick test_summary_welford;
        Alcotest.test_case "empty" `Quick test_summary_empty;
        Alcotest.test_case "quantiles" `Quick test_quantiles;
        Alcotest.test_case "histogram" `Quick test_histogram;
        QCheck_alcotest.to_alcotest prop_quantile_bounds;
      ] );
  ]
