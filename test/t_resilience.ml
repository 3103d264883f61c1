(* Tests for the yield_resilience library and its wiring through the flow:
   deterministic fault injection, retry accounting, atomic writes, hardened
   table parsing, bit-exact codecs, checkpoint/resume and graceful
   degradation.  The slow suite proves the headline guarantees: a flow
   killed mid-WBGA or mid-Monte-Carlo and resumed produces bit-identical
   tables, and a 20 % injected DC-failure rate is fully accounted for by
   the retry metrics. *)

module Fault = Yield_resilience.Fault
module Retry = Yield_resilience.Retry
module Atomic_io = Yield_resilience.Atomic_io
module Codec = Yield_resilience.Codec
module Checkpoint = Yield_resilience.Checkpoint
module Metrics = Yield_obs.Metrics
module Json = Yield_obs.Json
module Rng = Yield_stats.Rng
module Circuit = Yield_spice.Circuit
module Dcop = Yield_spice.Dcop
module Montecarlo = Yield_process.Montecarlo
module Pool = Yield_exec.Pool
module Tbl_io = Yield_table.Tbl_io
module Genome = Yield_ga.Genome
module Ga = Yield_ga.Ga
module Wbga = Yield_ga.Wbga
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Diagnostic = Yield_analyse.Diagnostic

let mval name = Metrics.value (Metrics.counter name)

let hist_summary name =
  match List.assoc_opt name (Metrics.snapshot ()).Metrics.histograms with
  | Some s -> s
  | None -> Alcotest.failf "histogram %s not in the registry" name

(* every fault-arming test cleans up after itself so suites stay
   independent *)
let with_faults f = Fun.protect ~finally:Fault.reset f

let tmp_counter = ref 0

let fresh_dir prefix =
  incr tmp_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "yieldlab-%s-%d-%d" prefix (Unix.getpid ()) !tmp_counter)
  in
  Atomic_io.mkdir_p d;
  d

let check_bits what expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" what expected actual

(* ---------- fault injection ---------- *)

let test_fault_parse_spec () =
  (match Fault.parse_spec "dcop.solve:rate=0.2,seed=42;tbl.write:at=1" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok entries ->
      Alcotest.(check int) "two entries" 2 (List.length entries);
      (match List.assoc "dcop.solve" entries with
      | Fault.Rate { p; seed } ->
          check_bits "rate" 0.2 p;
          Alcotest.(check int) "seed" 42 seed
      | m -> Alcotest.failf "unexpected mode %s" (Fault.mode_to_string m));
      match List.assoc "tbl.write" entries with
      | Fault.At 1 -> ()
      | m -> Alcotest.failf "unexpected mode %s" (Fault.mode_to_string m));
  let expect_error spec =
    match Fault.parse_spec spec with
    | Ok _ -> Alcotest.failf "expected parse error for %S" spec
    | Error _ -> ()
  in
  expect_error "";
  expect_error "dcop.solve";
  expect_error "dcop.solve:rate=1.5";
  expect_error "dcop.solve:bogus=3";
  expect_error "dcop.solve:count=1,at=2"

let test_fault_modes () =
  with_faults (fun () ->
      Fault.reset ();
      let p = Fault.point "test.mode" in
      Fault.arm "test.mode" (Fault.Count 2);
      let fires = List.init 5 (fun _ -> Fault.fire p) in
      Alcotest.(check (list bool)) "count 2" [ true; true; false; false; false ]
        fires;
      Fault.reset ();
      Fault.arm "test.mode" (Fault.Every 3);
      let fires = List.init 6 (fun _ -> Fault.fire p) in
      Alcotest.(check (list bool))
        "every 3"
        [ false; false; true; false; false; true ]
        fires;
      Fault.reset ();
      Fault.arm "test.mode" (Fault.At 2);
      let fires = List.init 4 (fun _ -> Fault.fire p) in
      Alcotest.(check (list bool)) "at 2" [ false; true; false; false ] fires;
      Fault.disarm "test.mode";
      Alcotest.(check bool) "disarmed" false (Fault.fire p))

let test_fault_rate_determinism () =
  with_faults (fun () ->
      Fault.reset ();
      let p = Fault.point "test.rate" in
      Fault.arm "test.rate" (Fault.Rate { p = 0.2; seed = 7 });
      let run () = List.init 1000 (fun i -> Fault.fire_at p ~index:i) in
      let a = run () and b = run () in
      Alcotest.(check (list bool)) "replayable" a b;
      let hits = List.length (List.filter Fun.id a) in
      Alcotest.(check bool)
        (Printf.sprintf "rate ~ 0.2 (%d/1000)" hits)
        true
        (hits > 120 && hits < 280))

let test_fault_advance_blocks () =
  with_faults (fun () ->
      Fault.reset ();
      let p = Fault.point "test.advance" in
      Alcotest.(check int) "first block at 0" 0 (Fault.advance p ~by:10);
      Alcotest.(check int) "second block at 10" 10 (Fault.advance p ~by:5);
      Alcotest.(check int) "third block at 15" 15 (Fault.advance p ~by:1))

let test_fault_counters_and_armed () =
  with_faults (fun () ->
      Fault.reset ();
      Metrics.reset ();
      let p = Fault.point "test.counters" in
      Fault.arm "test.counters" (Fault.Count 1);
      ignore (Fault.fire p);
      ignore (Fault.fire p);
      Alcotest.(check int) "hits" 2 (mval "fault.test.counters.hits");
      Alcotest.(check int) "injected" 1 (mval "fault.test.counters.injected");
      match Fault.armed () with
      | [ ("test.counters", Fault.Count 1) ] -> ()
      | l -> Alcotest.failf "unexpected armed list (%d entries)" (List.length l))

let test_fault_raise_if () =
  with_faults (fun () ->
      Fault.reset ();
      let p = Fault.point "test.crash" in
      Fault.arm "test.crash" (Fault.At 1);
      match Fault.raise_if p with
      | exception Fault.Injected "test.crash" -> ()
      | () -> Alcotest.fail "expected Injected")

(* ---------- retry policies ---------- *)

let test_retry_recovers () =
  Metrics.reset ();
  let pol = Retry.policy "test.recover" in
  let result =
    Retry.with_retries pol
      ~classify:(fun _ -> Retry.Transient)
      (fun ~attempt -> if attempt < 2 then Error "flaky" else Ok attempt)
  in
  Alcotest.(check (result int string)) "recovered on attempt 2" (Ok 2) result;
  Alcotest.(check int) "retries" 1 (mval "retry.test.recover.retries");
  Alcotest.(check int) "recovered" 1 (mval "retry.test.recover.recovered");
  Alcotest.(check int) "exhausted" 0 (mval "retry.test.recover.exhausted")

let test_retry_exhausts () =
  Metrics.reset ();
  let pol = Retry.policy "test.exhaust" in
  let result =
    Retry.with_retries pol
      ~classify:(fun _ -> Retry.Transient)
      (fun ~attempt:_ -> Error "down")
  in
  Alcotest.(check (result int string)) "still failing" (Error "down") result;
  Alcotest.(check int) "retries" 2 (mval "retry.test.exhaust.retries");
  Alcotest.(check int) "exhausted" 1 (mval "retry.test.exhaust.exhausted");
  Alcotest.(check int) "recovered" 0 (mval "retry.test.exhaust.recovered")

let test_retry_permanent () =
  Metrics.reset ();
  let pol = Retry.policy "test.permanent" in
  let calls = ref 0 in
  let result =
    Retry.with_retries pol
      ~classify:(fun _ -> Retry.Permanent)
      (fun ~attempt:_ ->
        incr calls;
        Error "broken")
  in
  Alcotest.(check (result int string)) "fails" (Error "broken") result;
  Alcotest.(check int) "no retries on permanent" 1 !calls;
  Alcotest.(check int) "permanent" 1 (mval "retry.test.permanent.permanent");
  Alcotest.(check int) "retries" 0 (mval "retry.test.permanent.retries")

let test_retry_deadline_stops () =
  Metrics.reset ();
  let pol = Retry.policy "test.deadline" in
  (* a deadline already at "now": the first attempt still runs (callers
     enforce admission deadlines themselves) but no retry is launched *)
  let calls = ref 0 in
  let result =
    Retry.with_retries ~deadline_s:(Yield_obs.Clock.now_s ()) pol
      ~classify:(fun _ -> Retry.Transient)
      (fun ~attempt:_ ->
        incr calls;
        Error "slow")
  in
  Alcotest.(check (result int string)) "fails" (Error "slow") result;
  Alcotest.(check int) "single attempt" 1 !calls;
  Alcotest.(check int) "no retries" 0 (mval "retry.test.deadline.retries");
  Alcotest.(check int) "exhausted (identity holds)" 1
    (mval "retry.test.deadline.exhausted");
  Alcotest.(check int) "deadline_stopped" 1
    (mval "retry.test.deadline.deadline_stopped")

let test_retry_deadline_far () =
  Metrics.reset ();
  let pol = Retry.policy "test.deadline_far" in
  (* a distant deadline must not change the retry behaviour at all *)
  let result =
    Retry.with_retries ~deadline_s:(Yield_obs.Clock.now_s () +. 60.) pol
      ~classify:(fun _ -> Retry.Transient)
      (fun ~attempt -> if attempt < 2 then Error "flaky" else Ok attempt)
  in
  Alcotest.(check (result int string)) "recovered" (Ok 2) result;
  Alcotest.(check int) "retries" 1 (mval "retry.test.deadline_far.retries");
  Alcotest.(check int) "deadline_stopped" 0
    (mval "retry.test.deadline_far.deadline_stopped")

(* ---------- atomic writes ---------- *)

let test_atomic_write () =
  let dir = fresh_dir "atomic" in
  let path = Filename.concat dir "a.txt" in
  Atomic_io.write_file ~path "first";
  Alcotest.(check string) "written" "first" (Atomic_io.read_file ~path);
  Atomic_io.write_file ~path "second";
  Alcotest.(check string) "overwritten" "second" (Atomic_io.read_file ~path);
  Alcotest.(check bool) "no temp left" false
    (Sys.file_exists (Atomic_io.temp_path path))

let divider () =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" "in" "0" 10.;
  Circuit.add_resistor c ~name:"R1" "in" "mid" 1000.;
  Circuit.add_resistor c ~name:"R2" "mid" "0" 3000.;
  c

let sample_table () =
  Tbl_io.of_string "# columns: x y\n1.0 2.0\n3.0 4.0\n"

let test_tbl_write_torn () =
  with_faults (fun () ->
      Fault.reset ();
      let dir = fresh_dir "torn" in
      let path = Filename.concat dir "m.tbl" in
      let tbl = sample_table () in
      Tbl_io.write ~path tbl;
      let before = Atomic_io.read_file ~path in
      (* the clean write above consumed hit 1; start the schedule over *)
      Fault.reset ();
      Fault.arm "tbl.write" (Fault.At 1);
      (match Tbl_io.write ~path tbl with
      | exception Fault.Injected _ -> ()
      | () -> Alcotest.fail "expected a torn write");
      Alcotest.(check string) "target untouched by the torn write" before
        (Atomic_io.read_file ~path);
      Fault.reset ();
      Tbl_io.write ~path tbl;
      Alcotest.(check string) "clean rewrite" before
        (Atomic_io.read_file ~path);
      Alcotest.(check bool) "temp cleaned up" false
        (Sys.file_exists (Atomic_io.temp_path path)))

(* ---------- hardened table reads ---------- *)

let test_tbl_read_errors () =
  (match Tbl_io.of_string_result "# columns: x y\n1.0 oops\n" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      Alcotest.(check (option int)) "line" (Some 2) e.Tbl_io.line;
      Alcotest.(check bool) "mentions the literal" true
        (let s = Tbl_io.read_error_to_string e in
         let has needle =
           let n = String.length needle and m = String.length s in
           let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
           go 0
         in
         has "oops"));
  (match Tbl_io.of_string_result "# columns: x y\n1.0 2.0\n3.0\n" with
  | Ok _ -> Alcotest.fail "expected a ragged-row error"
  | Error e -> Alcotest.(check (option int)) "ragged line" (Some 3) e.Tbl_io.line);
  match Tbl_io.of_string_result ~path:"m.tbl" "# columns: x y z\n1.0 2.0\n" with
  | Ok _ -> Alcotest.fail "expected a header-width error"
  | Error e -> Alcotest.(check (option string)) "path" (Some "m.tbl") e.Tbl_io.path

let test_tbl_read_result_files () =
  (match Tbl_io.read_result ~path:"/nonexistent/yieldlab.tbl" with
  | Ok _ -> Alcotest.fail "expected a read error"
  | Error e ->
      Alcotest.(check bool) "carries a path" true (e.Tbl_io.path <> None));
  let dir = fresh_dir "tblread" in
  let path = Filename.concat dir "garbage.tbl" in
  Atomic_io.write_file ~path "# columns: x y\n1.0 2.0\n3.0 what\n";
  (match Tbl_io.read_result ~path with
  | Ok _ -> Alcotest.fail "expected a typed error on garbage"
  | Error e ->
      Alcotest.(check (option string)) "path" (Some path) e.Tbl_io.path;
      Alcotest.(check (option int)) "line" (Some 3) e.Tbl_io.line);
  (match Tbl_io.read ~path with
  | exception Failure msg ->
      Alcotest.(check bool) "Failure names the file" true
        (let n = String.length path and m = String.length msg in
         let rec go i = i + n <= m && (String.sub msg i n = path || go (i + 1)) in
         go 0)
  | _ -> Alcotest.fail "expected Failure");
  let good = Filename.concat dir "good.tbl" in
  Tbl_io.write ~path:good (sample_table ());
  match Tbl_io.read_result ~path:good with
  | Ok t ->
      Alcotest.(check string) "roundtrip" (Tbl_io.to_string (sample_table ()))
        (Tbl_io.to_string t)
  | Error e -> Alcotest.failf "roundtrip: %s" (Tbl_io.read_error_to_string e)

(* ---------- bit-exact codecs ---------- *)

let test_codec_floats () =
  let values =
    [ 0.; -0.; 1. /. 3.; -1.2345678901234567e-300; 6.02214076e23;
      Float.max_float; Float.min_float; epsilon_float; infinity; neg_infinity ]
  in
  List.iter
    (fun v ->
      let j = Codec.float_ v in
      (* through the actual serialised text, as a checkpoint would *)
      let v' = Codec.to_float (Json.parse (Json.to_string j)) in
      check_bits "float roundtrip" v v')
    values;
  Alcotest.(check bool) "nan survives" true
    (Float.is_nan (Codec.to_float (Json.parse (Json.to_string (Codec.float_ nan)))))

let test_codec_ints () =
  List.iter
    (fun v ->
      let v' = Codec.to_int64 (Json.parse (Json.to_string (Codec.int64_ v))) in
      Alcotest.(check int64) "int64 roundtrip" v v')
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x9E3779B97F4A7C15L ];
  Alcotest.(check int) "int roundtrip" max_int
    (Codec.to_int (Json.parse (Json.to_string (Codec.int_ max_int))))

let test_codec_rng_state () =
  let rng = Rng.create 1234 in
  (* draw one gaussian so the Box-Muller cache is populated *)
  ignore (Rng.normal rng ~mean:0. ~sigma:1.);
  let st = Rng.save rng in
  let j = Json.parse (Json.to_string (Codec.rng_state st)) in
  let rng' = Rng.of_state (Codec.to_rng_state j) in
  for i = 0 to 99 do
    check_bits (Printf.sprintf "uniform draw %d" i) (Rng.float rng)
      (Rng.float rng');
    check_bits
      (Printf.sprintf "gaussian draw %d" i)
      (Rng.normal rng ~mean:0. ~sigma:1.)
      (Rng.normal rng' ~mean:0. ~sigma:1.)
  done

(* ---------- checkpoint store ---------- *)

let test_checkpoint_roundtrip () =
  Metrics.reset ();
  let ckpt = Checkpoint.create ~dir:(fresh_dir "ckpt") in
  Alcotest.(check bool) "missing key" true
    (Checkpoint.load ckpt ~key:"absent" = None);
  Checkpoint.store ckpt ~key:"wbga.state" (Codec.int_ 42);
  (match Checkpoint.load ckpt ~key:"wbga.state" with
  | Some j -> Alcotest.(check int) "payload" 42 (Codec.to_int j)
  | None -> Alcotest.fail "expected the stored payload");
  Checkpoint.remove ckpt ~key:"wbga.state";
  Alcotest.(check bool) "removed" true
    (Checkpoint.load ckpt ~key:"wbga.state" = None);
  match Checkpoint.store ckpt ~key:"../escape" (Codec.int_ 1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "expected Invalid_argument on a bad key"

let test_checkpoint_corrupt () =
  Metrics.reset ();
  let dir = fresh_dir "ckpt-corrupt" in
  let ckpt = Checkpoint.create ~dir in
  Checkpoint.store ckpt ~key:"mc.state" (Codec.int_ 7);
  let path = Filename.concat dir "mc.state.ckpt.json" in
  Atomic_io.write_file ~path "{\"truncated\": ";
  Alcotest.(check bool) "corrupt reads as absent" true
    (Checkpoint.load ckpt ~key:"mc.state" = None);
  Alcotest.(check int) "corruption counted" 1 (mval "checkpoint.corrupt")

let test_checkpoint_fingerprint () =
  let ckpt = Checkpoint.create ~dir:(fresh_dir "ckpt-fp") in
  (match Checkpoint.check_fingerprint ckpt "v1;seed=1" with
  | Ok `Fresh -> ()
  | _ -> Alcotest.fail "expected `Fresh on a new directory");
  (match Checkpoint.check_fingerprint ckpt "v1;seed=1" with
  | Ok `Resumable -> ()
  | _ -> Alcotest.fail "expected `Resumable on a matching fingerprint");
  match Checkpoint.check_fingerprint ckpt "v1;seed=2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error on a mismatch"

(* ---------- WBGA checkpoint/resume ---------- *)

let wbga_setup () =
  let ranges =
    [| Genome.range "a" ~lo:0. ~hi:1.; Genome.range "b" ~lo:0.5 ~hi:2. |]
  in
  let objectives =
    [|
      { Wbga.name = "f1"; maximise = true };
      { Wbga.name = "f2"; maximise = false };
    |]
  in
  let evaluate params =
    let a = params.(0) and b = params.(1) in
    (* a failure region exercises the failure-count restore *)
    if a +. b < 0.6 then None
    else Some [| sin (10. *. a) +. b; (a *. b) +. (0.1 *. sin (25. *. b)) |]
  in
  let config =
    { Ga.default_config with Ga.population_size = 16; generations = 8 }
  in
  (ranges, objectives, evaluate, config)

let check_entry what (e : Wbga.entry) (e' : Wbga.entry) =
  Array.iteri
    (fun i v -> check_bits (what ^ ".params") v e'.Wbga.params.(i))
    e.Wbga.params;
  Array.iteri
    (fun i v -> check_bits (what ^ ".objectives") v e'.Wbga.objectives.(i))
    e.Wbga.objectives;
  check_bits (what ^ ".fitness") e.Wbga.fitness e'.Wbga.fitness

let check_same_result (a : Wbga.result) (b : Wbga.result) =
  Alcotest.(check int) "evaluations" a.Wbga.evaluations b.Wbga.evaluations;
  Alcotest.(check int) "failures" a.Wbga.failures b.Wbga.failures;
  Alcotest.(check int) "history length" (Array.length a.Wbga.history)
    (Array.length b.Wbga.history);
  Array.iteri
    (fun i v -> check_bits (Printf.sprintf "history %d" i) v b.Wbga.history.(i))
    a.Wbga.history;
  Alcotest.(check int) "front size" (Array.length a.Wbga.front)
    (Array.length b.Wbga.front);
  Array.iteri
    (fun i e -> check_entry (Printf.sprintf "front %d" i) e b.Wbga.front.(i))
    a.Wbga.front;
  Alcotest.(check int) "archive size" (Array.length a.Wbga.archive)
    (Array.length b.Wbga.archive)

let test_wbga_resume_bit_identical () =
  let ranges, objectives, evaluate, config = wbga_setup () in
  let snapshots = ref [] in
  let result_a =
    Wbga.run ~config
      ~checkpoint:(fun s -> snapshots := s :: !snapshots)
      ~param_ranges:ranges ~objectives ~rng:(Rng.create 7) ~evaluate ()
  in
  Alcotest.(check int) "one snapshot per generation" 8
    (List.length !snapshots);
  let mid =
    List.find
      (fun s -> s.Wbga.ga.Ga.next_generation = 3)
      !snapshots
  in
  (* through the serialised form, exactly as the flow's checkpoint does *)
  let mid' =
    match
      Wbga.snapshot_of_json
        (Json.parse (Json.to_string (Wbga.snapshot_to_json mid)))
    with
    | Ok s -> s
    | Error e -> Alcotest.failf "snapshot decode: %s" e
  in
  let result_b =
    (* the fresh RNG seed is irrelevant: resume restores the stream state *)
    Wbga.run ~config ~resume:mid' ~param_ranges:ranges ~objectives
      ~rng:(Rng.create 999) ~evaluate ()
  in
  check_same_result result_a result_b

let test_wbga_result_codec () =
  let ranges, objectives, evaluate, config = wbga_setup () in
  let result =
    Wbga.run ~config ~param_ranges:ranges ~objectives ~rng:(Rng.create 7)
      ~evaluate ()
  in
  match
    Wbga.result_of_json (Json.parse (Json.to_string (Wbga.result_to_json result)))
  with
  | Error e -> Alcotest.failf "result decode: %s" e
  | Ok result' ->
      check_same_result result result';
      Array.iteri
        (fun i e -> check_entry (Printf.sprintf "archive %d" i) e
            result'.Wbga.archive.(i))
        result.Wbga.archive

(* ---------- Monte Carlo fault determinism and degraded yield ---------- *)

let test_mc_injection_serial_equals_parallel () =
  with_faults (fun () ->
      let batch run =
        Fault.reset ();
        Fault.arm "mc.sample" (Fault.Rate { p = 0.3; seed = 5 });
        let rng = Rng.create 97 in
        run ~samples:48 ~rng (fun child -> Some (Rng.float child))
      in
      let serial = batch (fun ~samples ~rng f ->
          Montecarlo.run_counted ~samples ~rng f) in
      let parallel = batch (fun ~samples ~rng f ->
          Pool.with_pool ~jobs:4 (fun pool ->
              Montecarlo.run_pool_counted ~pool ~samples ~rng f)) in
      Alcotest.(check int) "attempted" serial.Montecarlo.attempted
        parallel.Montecarlo.attempted;
      Alcotest.(check int) "failed" serial.Montecarlo.failed
        parallel.Montecarlo.failed;
      Alcotest.(check bool) "some samples were injected" true
        (serial.Montecarlo.failed > 0);
      Alcotest.(check bool) "some samples survived" true
        (Array.length serial.Montecarlo.results > 0);
      Alcotest.(check int) "same survivors" (Array.length serial.Montecarlo.results)
        (Array.length parallel.Montecarlo.results);
      Array.iteri
        (fun i v ->
          check_bits (Printf.sprintf "sample %d" i) v
            parallel.Montecarlo.results.(i))
        serial.Montecarlo.results)

let test_yield_of_counted () =
  let ok =
    { Montecarlo.results = [| 1.; 2.; 3.; 0.5 |]; attempted = 6; failed = 2 }
  in
  (match Montecarlo.yield_of_counted (fun v -> v >= 1.) ok with
  | Montecarlo.Estimate e ->
      Alcotest.(check int) "pass" 3 e.Montecarlo.pass;
      Alcotest.(check int) "total" 4 e.Montecarlo.total
  | Montecarlo.No_valid_samples _ -> Alcotest.fail "expected an estimate");
  let empty = { Montecarlo.results = [||]; attempted = 6; failed = 6 } in
  match Montecarlo.yield_of_counted (fun _ -> true) empty with
  | Montecarlo.No_valid_samples { attempted = 6; failed = 6 } ->
      let s = Montecarlo.yield_outcome_to_string
          (Montecarlo.No_valid_samples { attempted = 6; failed = 6 }) in
      Alcotest.(check bool) "degrades to unknown" true
        (let n = "yield unknown" in
         String.length s >= String.length n
         && String.sub s 0 (String.length n) = n)
  | _ -> Alcotest.fail "expected No_valid_samples"

(* ---------- DC homotopy forcing and solve_with_retry ---------- *)

let test_dcop_gmin_recovery () =
  with_faults (fun () ->
      Fault.reset ();
      Metrics.reset ();
      Fault.arm "dcop.newton" (Fault.Count 1);
      let circuit = divider () in
      (match Dcop.solve circuit with
      | Ok op ->
          Alcotest.(check (float 1e-6)) "divider still solves" 7.5
            (Dcop.voltage_by_name op circuit "mid")
      | Error _ -> Alcotest.fail "gmin stepping should have recovered");
      Alcotest.(check int) "newton fault recorded" 1
        (mval "fault.dcop.newton.injected");
      (* one solve, two recovery stages tried: newton then gmin-stepping *)
      let s = hist_summary "dcop.recovery_attempts" in
      Alcotest.(check int) "one recovery observation" 1 s.Yield_obs.Histogram.count;
      Alcotest.(check (float 1e-9)) "newton + gmin-stepping" 2.
        s.Yield_obs.Histogram.max;
      Alcotest.(check bool) "gmin steps were walked" true
        ((hist_summary "dcop.gmin_steps").Yield_obs.Histogram.max >= 1.))

let test_dcop_source_stepping_recovery () =
  with_faults (fun () ->
      Fault.reset ();
      Metrics.reset ();
      Fault.arm "dcop.newton" (Fault.Count 1);
      Fault.arm "dcop.gmin" (Fault.Count 1);
      (match Dcop.solve (divider ()) with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "source stepping should have recovered");
      Alcotest.(check int) "newton fault recorded" 1
        (mval "fault.dcop.newton.injected");
      Alcotest.(check int) "gmin fault recorded" 1
        (mval "fault.dcop.gmin.injected");
      (* all three stages tried: newton, gmin-stepping, source-stepping *)
      let s = hist_summary "dcop.recovery_attempts" in
      Alcotest.(check int) "one recovery observation" 1 s.Yield_obs.Histogram.count;
      Alcotest.(check (float 1e-9)) "full homotopy chain" 3.
        s.Yield_obs.Histogram.max)

let test_dcop_injected_no_convergence () =
  with_faults (fun () ->
      Fault.reset ();
      Fault.arm "dcop.solve" (Fault.At 1);
      match Dcop.solve (divider ()) with
      | Error (Dcop.No_convergence { attempts }) ->
          Alcotest.(check (list string)) "attempt trace" [ "injected-fault" ]
            attempts
      | Ok _ -> Alcotest.fail "expected the injected failure"
      | Error (Dcop.Singular_system _) ->
          Alcotest.fail "expected No_convergence")

let test_dcop_classify () =
  Alcotest.(check bool) "non-convergence is transient" true
    (Dcop.classify_error (Dcop.No_convergence { attempts = [] })
    = Retry.Transient);
  Alcotest.(check bool) "singular is permanent" true
    (Dcop.classify_error (Dcop.Singular_system "x") = Retry.Permanent)

(* the headline accounting identity, in a controlled setting where fault
   injection is the only transient-failure source:
   fault.dcop.solve.injected = retry.dcop.solve.retries + .exhausted *)
let test_retry_accounting_identity () =
  with_faults (fun () ->
      Fault.reset ();
      Metrics.reset ();
      Fault.arm "dcop.solve" (Fault.Count 5);
      let circuit = divider () in
      let outcomes =
        List.init 8 (fun _ ->
            match Dcop.solve_with_retry circuit with
            | Ok _ -> `Ok
            | Error _ -> `Error)
      in
      (* call 1 burns injected hits 1-3 and exhausts; call 2 burns hits
         4-5 and recovers on its third attempt; the rest are clean *)
      Alcotest.(check int) "one call exhausted" 1
        (List.length (List.filter (( = ) `Error) outcomes));
      Alcotest.(check int) "injected" 5 (mval "fault.dcop.solve.injected");
      Alcotest.(check int) "retries" 4 (mval "retry.dcop.solve.retries");
      Alcotest.(check int) "exhausted" 1 (mval "retry.dcop.solve.exhausted");
      Alcotest.(check int) "recovered" 1 (mval "retry.dcop.solve.recovered");
      Alcotest.(check int) "identity: injected = retries + exhausted"
        (mval "fault.dcop.solve.injected")
        (mval "retry.dcop.solve.retries" + mval "retry.dcop.solve.exhausted"))

(* ---------- the flow: kill, resume, degrade ---------- *)

let smoke_config =
  {
    Config.fast_scale with
    Config.ga =
      { Ga.default_config with Ga.population_size = 24; generations = 12 };
    mc_samples = 12;
    front_stride = 2;
    seed = 47;
  }

let flow_tables f =
  let dir = fresh_dir "tables" in
  Flow.save_tables f ~dir
  |> List.map (fun path -> (Filename.basename path, Atomic_io.read_file ~path))

(* the uninterrupted reference run, shared by the kill/resume tests *)
let baseline = lazy (flow_tables (Flow.run smoke_config))

let check_resumed_matches_baseline what resumed =
  let base = Lazy.force baseline in
  Alcotest.(check int) (what ^ ": table count") (List.length base)
    (List.length resumed);
  List.iter2
    (fun (name, contents) (name', contents') ->
      Alcotest.(check string) (what ^ ": table name") name name';
      Alcotest.(check string)
        (Printf.sprintf "%s: %s bit-identical" what name)
        contents contents')
    base resumed

let kill_and_resume ~what ~point ~at =
  with_faults (fun () ->
      let dir = fresh_dir "flow-ckpt" in
      Fault.reset ();
      Fault.arm point (Fault.At at);
      (match Flow.run ~checkpoint_dir:dir smoke_config with
      | exception Fault.Injected p ->
          Alcotest.(check string) (what ^ ": crashed at the armed point")
            point p
      | _ -> Alcotest.failf "%s: expected the simulated crash" what);
      Fault.reset ();
      let f = Flow.run ~checkpoint_dir:dir ~resume:true smoke_config in
      check_resumed_matches_baseline what (flow_tables f))

let test_flow_resume_after_wbga_kill () =
  kill_and_resume ~what:"mid-WBGA kill" ~point:"flow.wbga.generation" ~at:4

let test_flow_resume_after_mc_kill () =
  kill_and_resume ~what:"mid-MC kill" ~point:"flow.mc.point" ~at:1

let test_flow_redundant_resume () =
  (* resuming a directory holding a completed run recomputes nothing new
     and still reproduces the tables *)
  let dir = fresh_dir "flow-done" in
  let f = Flow.run ~checkpoint_dir:dir smoke_config in
  check_resumed_matches_baseline "complete run" (flow_tables f);
  let f' = Flow.run ~checkpoint_dir:dir ~resume:true smoke_config in
  check_resumed_matches_baseline "redundant resume" (flow_tables f')

let test_flow_fingerprint_mismatch () =
  let dir = fresh_dir "flow-fp" in
  ignore (Flow.run ~checkpoint_dir:dir smoke_config);
  let other = { smoke_config with Config.seed = 48 } in
  List.iter
    (fun preflight ->
      match Flow.run ~preflight ~checkpoint_dir:dir ~resume:true other with
      | exception Flow.Refused diags ->
          Alcotest.(check bool)
            (Printf.sprintf "a C005 error (preflight %b)" preflight)
            true
            (List.exists
               (fun d ->
                 d.Diagnostic.code = "C005"
                 && d.Diagnostic.severity = Diagnostic.Error)
               diags);
          Alcotest.(check int) "exit 2" 2 (Diagnostic.exit_code diags)
      | _ -> Alcotest.fail "expected a fingerprint-mismatch refusal")
    [ true; false ]

(* a csr checkpoint written before csr samples started at the nominal
   operating point carries the plain [solver=csr] tag; its points were
   cold-started, so resuming over it is refused before any simulation,
   with or without the preflight *)
let test_flow_cold_csr_checkpoint_refused () =
  let dir = fresh_dir "flow-cold-csr" in
  let cold_csr =
    "v1;seed=2008;pop=40;gens=25;mc=40;stride=4;control=3E;solver=csr"
  in
  (match Checkpoint.check_fingerprint (Checkpoint.create ~dir) cold_csr with
  | Ok `Fresh -> ()
  | Ok `Resumable | Error _ -> Alcotest.fail "fresh dir not recorded");
  let config = { Config.fast_scale with Config.solver = Yield_numeric.Linsys.Csr } in
  List.iter
    (fun preflight ->
      match Flow.run ~preflight ~checkpoint_dir:dir ~resume:true config with
      | exception Flow.Refused diags ->
          Alcotest.(check bool)
            (Printf.sprintf "C005 (preflight %b)" preflight)
            true
            (List.exists (fun d -> d.Diagnostic.code = "C005") diags);
          Alcotest.(check int) "exit 2" 2 (Diagnostic.exit_code diags)
      | _ ->
          Alcotest.failf "resumed a cold csr checkpoint (preflight %b)"
            preflight)
    [ true; false ]

let test_flow_other_topology_refused () =
  (* an OTA checkpoint must not resume as the Miller flow's result, with or
     without the preflight's C005 dry-run; the OTA still records the bare
     config fingerprint, so checkpoints written before the amplifier joined
     the fingerprint stay resumable *)
  let dir = fresh_dir "flow-topology" in
  ignore (Flow.run ~checkpoint_dir:dir smoke_config);
  (match
     Checkpoint.check_fingerprint (Checkpoint.create ~dir)
       (Config.fingerprint smoke_config)
   with
  | Ok `Resumable -> ()
  | Ok `Fresh | Error _ ->
      Alcotest.fail "the OTA flow no longer records Config.fingerprint");
  let module Miller_flow = Flow.Make (Yield_circuits.Miller) in
  List.iter
    (fun preflight ->
      match
        Miller_flow.run ~preflight ~checkpoint_dir:dir ~resume:true
          smoke_config
      with
      | exception Flow.Refused diags ->
          if not (List.exists (fun d -> d.Diagnostic.code = "C005") diags)
          then
            Alcotest.failf "refused without C005: %s"
              (Diagnostic.list_to_text diags)
      | _ ->
          Alcotest.failf "Miller resumed an OTA checkpoint (preflight %b)"
            preflight)
    [ true; false ]

let test_flow_with_20pct_dc_faults () =
  with_faults (fun () ->
      Fault.reset ();
      Metrics.reset ();
      Fault.arm "dcop.solve" (Fault.Rate { p = 0.2; seed = 11 });
      let f = Flow.run smoke_config in
      Alcotest.(check bool) "flow completed with a usable front" true
        (Array.length f.Flow.front_points >= 2);
      let injected = mval "fault.dcop.solve.injected" in
      let retries = mval "retry.dcop.solve.retries" in
      let exhausted = mval "retry.dcop.solve.exhausted" in
      Alcotest.(check bool)
        (Printf.sprintf "faults were injected (%d)" injected)
        true (injected > 0);
      (* natural non-convergence also lands in the retry counters, so the
         identity relaxes to >=: nothing injected goes unaccounted *)
      Alcotest.(check bool)
        (Printf.sprintf "every injected fault accounted (%d <= %d + %d)"
           injected retries exhausted)
        true
        (retries + exhausted >= injected);
      Alcotest.(check bool) "honest denominators" true
        (mval "mc.samples.attempted" >= mval "mc.samples.failed"
        && mval "mc.samples.attempted" > 0))

let test_flow_starved_by_total_mc_failure () =
  with_faults (fun () ->
      Fault.reset ();
      Metrics.reset ();
      Fault.arm "mc.sample" (Fault.Rate { p = 1.0; seed = 3 });
      match Flow.run smoke_config with
      | exception Flow.Unfinished msg ->
          Alcotest.(check bool) "names the starvation" true
            (let needle = "starved" in
             let n = String.length needle and m = String.length msg in
             let rec go i =
               i + n <= m && (String.sub msg i n = needle || go (i + 1))
             in
             go 0);
          Alcotest.(check bool) "degraded points counted" true
            (mval "flow.points.degraded" > 0)
      | _ -> Alcotest.fail "expected the starvation failure")

let suites =
  [
    ( "resilience.fault",
      [
        Alcotest.test_case "parse_spec" `Quick test_fault_parse_spec;
        Alcotest.test_case "modes" `Quick test_fault_modes;
        Alcotest.test_case "rate determinism" `Quick
          test_fault_rate_determinism;
        Alcotest.test_case "advance blocks" `Quick test_fault_advance_blocks;
        Alcotest.test_case "counters and armed" `Quick
          test_fault_counters_and_armed;
        Alcotest.test_case "raise_if" `Quick test_fault_raise_if;
      ] );
    ( "resilience.retry",
      [
        Alcotest.test_case "recovers" `Quick test_retry_recovers;
        Alcotest.test_case "exhausts" `Quick test_retry_exhausts;
        Alcotest.test_case "permanent" `Quick test_retry_permanent;
        Alcotest.test_case "deadline stops retries" `Quick
          test_retry_deadline_stops;
        Alcotest.test_case "distant deadline is inert" `Quick
          test_retry_deadline_far;
      ] );
    ( "resilience.atomic",
      [
        Alcotest.test_case "write_file" `Quick test_atomic_write;
        Alcotest.test_case "torn tbl write" `Quick test_tbl_write_torn;
      ] );
    ( "resilience.tbl",
      [
        Alcotest.test_case "of_string_result errors" `Quick
          test_tbl_read_errors;
        Alcotest.test_case "read_result files" `Quick
          test_tbl_read_result_files;
      ] );
    ( "resilience.codec",
      [
        Alcotest.test_case "floats bit-exact" `Quick test_codec_floats;
        Alcotest.test_case "ints" `Quick test_codec_ints;
        Alcotest.test_case "rng state" `Quick test_codec_rng_state;
      ] );
    ( "resilience.checkpoint",
      [
        Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "corrupt payload" `Quick test_checkpoint_corrupt;
        Alcotest.test_case "fingerprint" `Quick test_checkpoint_fingerprint;
      ] );
    ( "resilience.wbga",
      [
        Alcotest.test_case "resume bit-identical" `Quick
          test_wbga_resume_bit_identical;
        Alcotest.test_case "result codec" `Quick test_wbga_result_codec;
      ] );
    ( "resilience.mc",
      [
        Alcotest.test_case "serial = parallel injection" `Quick
          test_mc_injection_serial_equals_parallel;
        Alcotest.test_case "yield_of_counted" `Quick test_yield_of_counted;
      ] );
    ( "resilience.dcop",
      [
        Alcotest.test_case "gmin recovery" `Quick test_dcop_gmin_recovery;
        Alcotest.test_case "source-stepping recovery" `Quick
          test_dcop_source_stepping_recovery;
        Alcotest.test_case "injected no-convergence" `Quick
          test_dcop_injected_no_convergence;
        Alcotest.test_case "classification" `Quick test_dcop_classify;
        Alcotest.test_case "retry accounting identity" `Quick
          test_retry_accounting_identity;
      ] );
    ( "resilience.flow",
      [
        Alcotest.test_case "resume after mid-WBGA kill" `Slow
          test_flow_resume_after_wbga_kill;
        Alcotest.test_case "resume after mid-MC kill" `Slow
          test_flow_resume_after_mc_kill;
        Alcotest.test_case "redundant resume" `Slow test_flow_redundant_resume;
        Alcotest.test_case "fingerprint mismatch" `Slow
          test_flow_fingerprint_mismatch;
        Alcotest.test_case "other topology refused" `Slow
          test_flow_other_topology_refused;
        Alcotest.test_case "cold csr checkpoint refused" `Quick
          test_flow_cold_csr_checkpoint_refused;
        Alcotest.test_case "20% dc fault rate" `Slow
          test_flow_with_20pct_dc_faults;
        Alcotest.test_case "total MC failure starves" `Slow
          test_flow_starved_by_total_mc_failure;
      ] );
  ]
