(* Tests for the yield_ga library: genome encoding, operators, the eq. 4/5
   machinery, Pareto extraction, the GA engine and the WBGA. *)

module Genome = Yield_ga.Genome
module Operators = Yield_ga.Operators
module Fitness = Yield_ga.Fitness
module Pareto = Yield_ga.Pareto
module Ga = Yield_ga.Ga
module Wbga = Yield_ga.Wbga
module Rng = Yield_stats.Rng

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let enc2 =
  Genome.encoding
    [| Genome.range "a" ~lo:0. ~hi:10.; Genome.range "b" ~lo:(-1.) ~hi:1. |]
    ~n_weights:2

(* --- genome --- *)

let test_genome_decode () =
  let g = [| 0.5; 0.25; 0.3; 0.1 |] in
  let p = Genome.params enc2 g in
  check_float "a" 5. p.(0);
  check_float "b" (-0.5) p.(1);
  let w = Genome.weights enc2 g in
  check_float "w0" 0.75 w.(0);
  check_float "w1" 0.25 w.(1)

let test_genome_weights_normalised () =
  (* equation (4): weights always sum to one *)
  let rng = Rng.create 1 in
  for _ = 1 to 50 do
    let g = Genome.random enc2 rng in
    let w = Genome.weights enc2 g in
    check_float ~eps:1e-12 "sum" 1. (Array.fold_left ( +. ) 0. w)
  done

let test_genome_zero_weights_uniform () =
  let g = [| 0.5; 0.5; 0.; 0. |] in
  let w = Genome.weights enc2 g in
  check_float "uniform" 0.5 w.(0)

let test_genome_log_range () =
  let enc =
    Genome.encoding [| Genome.log_range "c" ~lo:1e-12 ~hi:1e-9 |] ~n_weights:0
  in
  check_float ~eps:1e-9 "lo" 1e-12 (Genome.params enc [| 0. |]).(0);
  check_float ~eps:1e-9 "hi" 1e-9 (Genome.params enc [| 1. |]).(0);
  (* midpoint of a log range is the geometric mean *)
  check_float ~eps:1e-6 "geometric mid" (sqrt (1e-12 *. 1e-9))
    (Genome.params enc [| 0.5 |]).(0)

let test_genome_roundtrip () =
  let params = [| 7.5; 0.2 |] and weights = [| 0.6; 0.4 |] in
  let g = Genome.of_params enc2 ~params ~weights in
  let p = Genome.params enc2 g in
  check_float ~eps:1e-12 "a roundtrip" 7.5 p.(0);
  check_float ~eps:1e-12 "b roundtrip" 0.2 p.(1);
  let w = Genome.weights enc2 g in
  check_float ~eps:1e-9 "w roundtrip" 0.6 w.(0)

let test_genome_bad_range () =
  match Genome.range "x" ~lo:1. ~hi:1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of empty range"

(* --- operators --- *)

let test_tournament_prefers_best () =
  let rng = Rng.create 3 in
  let fitness = [| 0.1; 0.9; 0.5 |] in
  let counts = Array.make 3 0 in
  for _ = 1 to 3000 do
    let i = Operators.select (Operators.Tournament 2) rng ~fitness in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "best wins most" true
    (counts.(1) > counts.(0) && counts.(1) > counts.(2))

let test_one_point_crossover () =
  let rng = Rng.create 7 in
  let a = Array.make 6 0. and b = Array.make 6 1. in
  let c1, c2 = Operators.cross Operators.One_point rng a b in
  (* children are complementary and contain a single switch point *)
  Array.iteri (fun i x -> check_float "complementary" 1. (x +. c2.(i))) c1;
  let switches = ref 0 in
  for i = 1 to 5 do
    if c1.(i) <> c1.(i - 1) then incr switches
  done;
  Alcotest.(check int) "single switch" 1 !switches

let prop_crossover_in_bounds =
  QCheck.Test.make ~count:200 ~name:"crossover children stay in [0,1]"
    QCheck.(triple (int_bound 100000) bool (int_range 2 12))
    (fun (seed, blend, n) ->
      let rng = Rng.create seed in
      let a = Array.init n (fun _ -> Rng.float rng) in
      let b = Array.init n (fun _ -> Rng.float rng) in
      let op = if blend then Operators.Blend 0.5 else Operators.One_point in
      let c1, c2 = Operators.cross op rng a b in
      let ok g = Array.for_all (fun x -> x >= 0. && x <= 1.) g in
      ok c1 && ok c2)

let prop_mutation_in_bounds =
  QCheck.Test.make ~count:200 ~name:"mutation keeps genes in [0,1]"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let g = Array.init 8 (fun _ -> Rng.float rng) in
      Operators.mutate (Operators.Gaussian { sigma = 0.5; rate = 1. }) rng g;
      Array.for_all (fun x -> x >= 0. && x <= 1.) g)

(* --- fitness --- *)

let test_fitness_normalisation () =
  let n = Fitness.create 2 in
  Fitness.observe n [| 0.; 10. |];
  Fitness.observe n [| 10.; 20. |];
  let normed = Fitness.normalise n [| 5.; 15. |] in
  check_float "mid" 0.5 normed.(0);
  check_float "mid2" 0.5 normed.(1);
  (* equation (5) *)
  check_float "weighted" 0.5
    (Fitness.weighted_sum n ~weights:[| 0.3; 0.7 |] [| 5.; 15. |]);
  check_float "max scores 1" 1.
    (Fitness.weighted_sum n ~weights:[| 0.5; 0.5 |] [| 10.; 20. |])

let test_fitness_degenerate () =
  let n = Fitness.create 1 in
  Fitness.observe n [| 3. |];
  check_float "degenerate bounds -> 0.5" 0.5 (Fitness.normalise n [| 3. |]).(0)

let test_fitness_nonfinite () =
  let n = Fitness.create 1 in
  Fitness.observe n [| 1. |];
  Fitness.observe n [| nan |];
  Alcotest.(check int) "nan ignored" 1 (Fitness.observed n);
  Alcotest.(check bool) "nan scores -inf" true
    (Fitness.weighted_sum n ~weights:[| 1. |] [| nan |] = neg_infinity)

(* --- pareto --- *)

let test_dominates () =
  let m = [| true; true |] in
  Alcotest.(check bool) "strict" true (Pareto.dominates ~maximise:m [| 2.; 2. |] [| 1.; 1. |]);
  Alcotest.(check bool) "partial" true (Pareto.dominates ~maximise:m [| 2.; 1. |] [| 1.; 1. |]);
  Alcotest.(check bool) "equal" false (Pareto.dominates ~maximise:m [| 1.; 1. |] [| 1.; 1. |]);
  Alcotest.(check bool) "tradeoff" false (Pareto.dominates ~maximise:m [| 2.; 0. |] [| 1.; 1. |]);
  Alcotest.(check bool) "minimise flips" true
    (Pareto.dominates ~maximise:[| false; false |] [| 1.; 1. |] [| 2.; 2. |])

let test_front_2d_known () =
  let points = [| [| 1.; 5. |]; [| 2.; 4. |]; [| 3.; 1. |]; [| 2.; 3. |]; [| 0.; 6. |] |] in
  let front = Pareto.front_2d points in
  Alcotest.(check (list int)) "front indices" [ 0; 1; 2; 4 ] front

let test_front_2d_duplicates_kept () =
  let points = [| [| 1.; 1. |]; [| 1.; 1. |]; [| 0.; 0. |] |] in
  let front = Pareto.front_2d points in
  Alcotest.(check (list int)) "duplicates kept" [ 0; 1 ] front

let prop_front_matches_naive =
  QCheck.Test.make ~count:100 ~name:"front_2d agrees with O(n^2) dominance"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 40 in
      let points =
        Array.init n (fun _ -> [| Rng.float rng; Rng.float rng |])
      in
      let fast = Pareto.front_2d points in
      let naive = Pareto.non_dominated ~maximise:[| true; true |] points in
      fast = naive)

let prop_front_mutually_nondominated =
  QCheck.Test.make ~count:100 ~name:"front members do not dominate each other"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 3 + Rng.int rng 30 in
      let points = Array.init n (fun _ -> [| Rng.float rng; Rng.float rng |]) in
      let front = Pareto.front_2d points in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              i = j
              || not (Pareto.dominates ~maximise:[| true; true |] points.(i) points.(j)))
            front)
        front)

(* --- engine --- *)

let sphere_encoding =
  Genome.encoding
    (Array.init 4 (fun i ->
         Genome.range (Printf.sprintf "x%d" i) ~lo:(-5.) ~hi:5.))
    ~n_weights:0

let test_ga_optimises_sphere () =
  let score population =
    Array.map
      (fun g ->
        let p = Genome.params sphere_encoding g in
        let loss = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. p in
        ((), -.loss))
      population
  in
  let config = { Ga.default_config with Ga.population_size = 40; generations = 60 } in
  let r = Ga.run config sphere_encoding (Rng.create 9) ~score in
  Alcotest.(check bool) "near optimum" true (r.Ga.best.Ga.fitness > -0.1);
  Alcotest.(check int) "all evaluations archived" (40 * 60)
    (Array.length r.Ga.archive);
  (* history is the running best: must be non-decreasing *)
  let monotone = ref true in
  for i = 1 to Array.length r.Ga.history - 1 do
    if r.Ga.history.(i) < r.Ga.history.(i - 1) then monotone := false
  done;
  Alcotest.(check bool) "history monotone" true !monotone

let test_ga_deterministic () =
  let score population =
    Array.map (fun g -> ((), -.Float.abs (g.(0) -. 0.3))) population
  in
  let config = { Ga.default_config with Ga.population_size = 10; generations = 5 } in
  let run () = (Ga.run config sphere_encoding (Rng.create 42) ~score).Ga.best.Ga.fitness in
  check_float "same seeds same result" (run ()) (run ())

(* --- wbga on a known front --- *)

(* objectives f1 = x, f2 = 1 - x^2 on x in [0,1]: the true Pareto front is
   every x (f2 strictly decreases as f1 increases) *)
let test_wbga_finds_tradeoff () =
  let r =
    Wbga.run
      ~config:{ Ga.default_config with Ga.population_size = 30; generations = 30 }
      ~param_ranges:[| Genome.range "x" ~lo:0. ~hi:1. |]
      ~objectives:
        [| { Wbga.name = "f1"; maximise = true }; { Wbga.name = "f2"; maximise = true } |]
      ~rng:(Rng.create 13)
      ~evaluate:(fun p -> Some [| p.(0); 1. -. (p.(0) *. p.(0)) |])
      ()
  in
  Alcotest.(check bool) "front nonempty" true (Array.length r.Wbga.front > 10);
  Alcotest.(check int) "evaluations" (30 * 30) r.Wbga.evaluations;
  (* the front must be sorted by f1 and decreasing in f2 *)
  let sorted = ref true in
  for i = 1 to Array.length r.Wbga.front - 1 do
    if r.Wbga.front.(i).Wbga.objectives.(0) < r.Wbga.front.(i - 1).Wbga.objectives.(0)
    then sorted := false;
    if r.Wbga.front.(i).Wbga.objectives.(1) > r.Wbga.front.(i - 1).Wbga.objectives.(1)
    then sorted := false
  done;
  Alcotest.(check bool) "front sorted and monotone" true !sorted;
  (* both ends of the trade-off explored *)
  let f1s = Array.map (fun e -> e.Wbga.objectives.(0)) r.Wbga.front in
  Alcotest.(check bool) "covers low end" true
    (Array.fold_left Float.min infinity f1s < 0.3);
  Alcotest.(check bool) "covers high end" true
    (Array.fold_left Float.max neg_infinity f1s > 0.9)

let test_wbga_failures_counted () =
  let r =
    Wbga.run
      ~config:{ Ga.default_config with Ga.population_size = 10; generations = 3 }
      ~param_ranges:[| Genome.range "x" ~lo:0. ~hi:1. |]
      ~objectives:[| { Wbga.name = "f"; maximise = true } |]
      ~rng:(Rng.create 17)
      ~evaluate:(fun p -> if p.(0) < 0.5 then None else Some [| p.(0) |])
      ()
  in
  Alcotest.(check int) "evals = archive + failures" 30
    (Array.length r.Wbga.archive + r.Wbga.failures)

let suites =
  [
    ( "ga.genome",
      [
        Alcotest.test_case "decode" `Quick test_genome_decode;
        Alcotest.test_case "weights normalised (eq 4)" `Quick
          test_genome_weights_normalised;
        Alcotest.test_case "zero weights" `Quick test_genome_zero_weights_uniform;
        Alcotest.test_case "log range" `Quick test_genome_log_range;
        Alcotest.test_case "roundtrip" `Quick test_genome_roundtrip;
        Alcotest.test_case "bad range" `Quick test_genome_bad_range;
      ] );
    ( "ga.operators",
      [
        Alcotest.test_case "tournament" `Quick test_tournament_prefers_best;
        Alcotest.test_case "one-point" `Quick test_one_point_crossover;
        QCheck_alcotest.to_alcotest prop_crossover_in_bounds;
        QCheck_alcotest.to_alcotest prop_mutation_in_bounds;
      ] );
    ( "ga.fitness",
      [
        Alcotest.test_case "normalisation (eq 5)" `Quick test_fitness_normalisation;
        Alcotest.test_case "degenerate bounds" `Quick test_fitness_degenerate;
        Alcotest.test_case "non-finite objectives" `Quick test_fitness_nonfinite;
      ] );
    ( "ga.pareto",
      [
        Alcotest.test_case "dominates" `Quick test_dominates;
        Alcotest.test_case "front_2d known" `Quick test_front_2d_known;
        Alcotest.test_case "duplicates kept" `Quick test_front_2d_duplicates_kept;
        QCheck_alcotest.to_alcotest prop_front_matches_naive;
        QCheck_alcotest.to_alcotest prop_front_mutually_nondominated;
      ] );
    ( "ga.engine",
      [
        Alcotest.test_case "optimises sphere" `Quick test_ga_optimises_sphere;
        Alcotest.test_case "deterministic" `Quick test_ga_deterministic;
      ] );
    ( "ga.wbga",
      [
        Alcotest.test_case "finds tradeoff" `Quick test_wbga_finds_tradeoff;
        Alcotest.test_case "failures counted" `Quick test_wbga_failures_counted;
      ] );
  ]
