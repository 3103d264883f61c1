(* Tests for the yield_exec execution layer and its determinism guarantees
   through the stack: the domain pool's order-independent reduction, the
   one jobs resolution rule, pool/serial equivalence in Montecarlo, WBGA
   bit-identity serial vs pooled, byte-identical flow tables at -j 1 vs
   -j 4 (also through a mid-WBGA kill + resume), fault accounting under
   parallel evaluation, and the C006 config lint. *)

module Pool = Yield_exec.Pool
module Jobs = Yield_exec.Jobs
module Fault = Yield_resilience.Fault
module Atomic_io = Yield_resilience.Atomic_io
module Metrics = Yield_obs.Metrics
module Montecarlo = Yield_process.Montecarlo
module Rng = Yield_stats.Rng
module Wbga = Yield_ga.Wbga
module Ga = Yield_ga.Ga
module Genome = Yield_ga.Genome
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Config_lint = Yield_analyse.Config_lint
module Diagnostic = Yield_analyse.Diagnostic

let with_faults f = Fun.protect ~finally:Fault.reset f

let mval name = Metrics.value (Metrics.counter name)

let check_bits what expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: %h is not bit-identical to %h" what actual expected

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

(* ---------- the pool itself ---------- *)

let test_pool_map_in_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.(check int) "jobs" (Stdlib.max 1 jobs) (Pool.jobs pool);
          let r = Pool.map pool ~n:100 (fun i -> i * i) in
          Alcotest.(check int) "length" 100 (Array.length r);
          Array.iteri
            (fun i v -> Alcotest.(check int) "slot" (i * i) v)
            r;
          (* the same pool is reusable across maps *)
          let r2 = Pool.map pool ~n:7 (fun i -> -i) in
          Array.iteri (fun i v -> Alcotest.(check int) "slot2" (-i) v) r2;
          Alcotest.(check int) "empty map" 0
            (Array.length (Pool.map pool ~n:0 (fun i -> i)))))
    [ 0; 1; 2; 4 ]

let test_pool_exception_propagates () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (match Pool.map pool ~n:64 (fun i -> if i = 17 then failwith "boom" else i) with
      | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
      | _ -> Alcotest.fail "expected the worker exception to propagate");
      (* the pool survives a poisoned job *)
      Alcotest.(check int) "still serves" 10
        (Array.length (Pool.map pool ~n:10 Fun.id)))

let test_pool_map_counted () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let c =
            Pool.map_counted pool ~n:20 (fun i ->
                if i mod 3 = 0 then None else Some i)
          in
          Alcotest.(check int) "attempted" 20 c.Pool.attempted;
          Alcotest.(check int) "failed" 7 c.Pool.failed;
          Alcotest.(check int) "kept" 13 (Array.length c.Pool.results);
          (* survivors stay in item order whatever the interleaving *)
          let expected =
            List.filter (fun i -> i mod 3 <> 0) (List.init 20 Fun.id)
          in
          Alcotest.(check (list int)) "order" expected
            (Array.to_list c.Pool.results)))
    [ 1; 4 ]

let test_pool_counted_fault_block () =
  with_faults (fun () ->
      (* an At schedule on a registered point decides by global item index,
         so the same item is lost at any jobs count *)
      let p = Fault.point "exec.test.item" in
      let survivors jobs =
        Fault.reset ();
        Fault.arm "exec.test.item" (Fault.At 5);
        Pool.with_pool ~jobs (fun pool ->
            Pool.map_counted pool ~fault:p ~n:12 (fun i -> Some i))
      in
      let serial = survivors 1 and parallel = survivors 4 in
      Alcotest.(check int) "failed serial" 1 serial.Pool.failed;
      Alcotest.(check int) "failed parallel" 1 parallel.Pool.failed;
      Alcotest.(check (list int)) "same survivors"
        (Array.to_list serial.Pool.results)
        (Array.to_list parallel.Pool.results))

(* ---------- the jobs resolution rule ---------- *)

let test_jobs_resolution () =
  let saved_env = Option.value (Sys.getenv_opt "YIELDLAB_JOBS") ~default:"" in
  let jobs ?(flags = []) () =
    match Config.resolve ~scope:Config.Global ~flags (Config.base ()) with
    | Ok c -> Ok c.Config.jobs
    | Error ds ->
        Error (List.map (fun d -> (d.Diagnostic.code, d.Diagnostic.subject)) ds)
  in
  let check what expected actual =
    Alcotest.(check (result int (list (pair string string)))) what expected actual
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "YIELDLAB_JOBS" saved_env)
    (fun () ->
      Unix.putenv "YIELDLAB_JOBS" "";
      check "no env -> recommended" (Ok (Jobs.recommended ())) (jobs ());
      check "flag" (Ok 3) (jobs ~flags:[ ("jobs", "3") ] ());
      (* a count below 1 is refused, never clamped to 1 *)
      check "flag 0 refused" (Error [ ("C006", "--jobs") ])
        (jobs ~flags:[ ("jobs", "0") ] ());
      (* the flag beats the environment *)
      Unix.putenv "YIELDLAB_JOBS" "7";
      check "flag beats env" (Ok 5) (jobs ~flags:[ ("jobs", "5") ] ());
      check "env" (Ok 7) (jobs ());
      (* a malformed variable is refused, never replaced by the default *)
      Unix.putenv "YIELDLAB_JOBS" "zero";
      check "bad env refused" (Error [ ("C008", "YIELDLAB_JOBS") ]) (jobs ());
      Unix.putenv "YIELDLAB_JOBS" "0";
      check "env 0 refused" (Error [ ("C006", "YIELDLAB_JOBS") ]) (jobs ()))

(* ---------- Montecarlo: two-job batch = one-job batch ---------- *)

let test_mc_pool_equals_serial () =
  let f (r : Rng.t) =
    let x = Rng.float r in
    if x < 0.25 then None else Some (x +. Rng.float r)
  in
  let pool_path =
    Pool.with_pool ~jobs:2 (fun pool ->
        Montecarlo.run ~pool ~samples:64 ~rng:(Rng.create 5) f)
  in
  let serial_path = Montecarlo.run ~samples:64 ~rng:(Rng.create 5) f in
  Alcotest.(check int) "attempted" serial_path.Montecarlo.attempted
    pool_path.Montecarlo.attempted;
  Alcotest.(check int) "failed" serial_path.Montecarlo.failed
    pool_path.Montecarlo.failed;
  Alcotest.(check int) "kept"
    (Array.length serial_path.Montecarlo.results)
    (Array.length pool_path.Montecarlo.results);
  Array.iteri
    (fun i v ->
      check_bits (Printf.sprintf "sample %d" i) v
        pool_path.Montecarlo.results.(i))
    serial_path.Montecarlo.results

(* ---------- WBGA: serial = pooled, bit for bit ---------- *)

let wbga_ranges =
  [|
    Genome.range "a" ~lo:0.5 ~hi:4.0;
    Genome.range "b" ~lo:1.0 ~hi:9.0;
  |]

(* a deterministic synthetic evaluation with a failure region, so the
   failure accounting is exercised without any simulator cost *)
let wbga_evaluate params =
  let a = params.(0) and b = params.(1) in
  if a +. b > 11.5 then None
  else Some [| (a *. b) +. sin b; (a /. b) +. cos a |]

let run_wbga pool =
  let config =
    { Ga.default_config with Ga.population_size = 20; generations = 8 }
  in
  Wbga.run ~config ?pool ~param_ranges:wbga_ranges
    ~objectives:
      [|
        { Wbga.name = "x"; maximise = true };
        { Wbga.name = "y"; maximise = false };
      |]
    ~rng:(Rng.create 123) ~evaluate:wbga_evaluate ()

let check_same_wbga what (a : Wbga.result) (b : Wbga.result) =
  Alcotest.(check int) (what ^ ": evaluations") a.Wbga.evaluations
    b.Wbga.evaluations;
  Alcotest.(check int) (what ^ ": failures") a.Wbga.failures b.Wbga.failures;
  Alcotest.(check int) (what ^ ": archive size")
    (Array.length a.Wbga.archive)
    (Array.length b.Wbga.archive);
  Alcotest.(check int) (what ^ ": front size")
    (Array.length a.Wbga.front)
    (Array.length b.Wbga.front);
  Array.iteri
    (fun i v -> check_bits (Printf.sprintf "%s: history %d" what i) v
        b.Wbga.history.(i))
    a.Wbga.history;
  Array.iteri
    (fun i (e : Wbga.entry) ->
      let e' = b.Wbga.archive.(i) in
      Array.iteri
        (fun j v ->
          check_bits (Printf.sprintf "%s: archive %d params %d" what i j) v
            e'.Wbga.params.(j))
        e.Wbga.params;
      Array.iteri
        (fun j v ->
          check_bits (Printf.sprintf "%s: archive %d obj %d" what i j) v
            e'.Wbga.objectives.(j))
        e.Wbga.objectives;
      check_bits (Printf.sprintf "%s: archive %d fitness" what i)
        e.Wbga.fitness e'.Wbga.fitness)
    a.Wbga.archive

let test_wbga_pool_bit_identical () =
  let serial = run_wbga None in
  Alcotest.(check bool) "some failures exercised" true
    (serial.Wbga.failures > 0);
  List.iter
    (fun jobs ->
      let pooled = Pool.with_pool ~jobs (fun p -> run_wbga (Some p)) in
      check_same_wbga (Printf.sprintf "jobs=%d" jobs) serial pooled)
    [ 1; 4 ]

(* ---------- the flow: -j 1 vs -j 4, kill + resume, fault accounting ---------- *)

let smoke_config jobs =
  {
    Config.fast_scale with
    Config.ga =
      { Ga.default_config with Ga.population_size = 24; generations = 12 };
    mc_samples = 12;
    front_stride = 2;
    seed = 47;
    jobs;
  }

let flow_tables f =
  let dir = fresh_dir "exec-tables" in
  Flow.save_tables f ~dir
  |> List.map (fun path -> (Filename.basename path, Atomic_io.read_file ~path))

(* the serial reference tables, shared by the parallel-determinism tests *)
let serial_tables = lazy (flow_tables (Flow.run (smoke_config 1)))

let check_tables_match_serial what tables =
  let base = Lazy.force serial_tables in
  Alcotest.(check int) (what ^ ": table count") (List.length base)
    (List.length tables);
  List.iter2
    (fun (name, contents) (name', contents') ->
      Alcotest.(check string) (what ^ ": table name") name name';
      Alcotest.(check string)
        (Printf.sprintf "%s: %s byte-identical" what name)
        contents contents')
    base tables

let test_flow_serial_vs_jobs4 () =
  check_tables_match_serial "-j 4" (flow_tables (Flow.run (smoke_config 4)))

let test_flow_kill_resume_under_pool () =
  with_faults (fun () ->
      let dir = fresh_dir "exec-ckpt" in
      Fault.reset ();
      Fault.arm "flow.wbga.generation" (Fault.At 4);
      (match Flow.run ~checkpoint_dir:dir (smoke_config 4) with
      | exception Fault.Injected p ->
          Alcotest.(check string) "crashed at the armed point"
            "flow.wbga.generation" p
      | _ -> Alcotest.fail "expected the simulated crash");
      Fault.reset ();
      let f = Flow.run ~checkpoint_dir:dir ~resume:true (smoke_config 4) in
      check_tables_match_serial "mid-WBGA kill under -j 4" (flow_tables f))

let test_flow_fault_accounting_under_pool () =
  with_faults (fun () ->
      Fault.reset ();
      Metrics.reset ();
      Fault.arm "dcop.solve" (Fault.Rate { p = 0.2; seed = 11 });
      let f = Flow.run (smoke_config 4) in
      Alcotest.(check bool) "flow completed with a usable front" true
        (Array.length f.Flow.front_points >= 2);
      let injected = mval "fault.dcop.solve.injected" in
      let retries = mval "retry.dcop.solve.retries" in
      let exhausted = mval "retry.dcop.solve.exhausted" in
      Alcotest.(check bool)
        (Printf.sprintf "faults were injected (%d)" injected)
        true (injected > 0);
      (* natural non-convergence also lands in the retry counters, so the
         identity relaxes to >=: nothing injected goes unaccounted, even
         with the evaluations interleaved across domains *)
      Alcotest.(check bool)
        (Printf.sprintf "every injected fault accounted (%d <= %d + %d)"
           injected retries exhausted)
        true
        (retries + exhausted >= injected))

(* ---------- config lint: C006 ---------- *)

let lint_view jobs =
  {
    Config_lint.population = 24;
    generations = 12;
    mc_samples = 40;
    front_stride = 1;
    control = "3E";
    seed = 47;
    jobs;
    fingerprint = "v1;test";
  }

let has_code code diags =
  List.exists (fun d -> d.Diagnostic.code = code) diags

let test_lint_jobs () =
  Alcotest.(check bool) "jobs=1 clean" false
    (has_code "C006" (Config_lint.check (lint_view 1)));
  let zero = Config_lint.check (lint_view 0) in
  Alcotest.(check bool) "jobs=0 flagged" true (has_code "C006" zero);
  Alcotest.(check int) "jobs=0 is an error" 1
    (Diagnostic.count Diagnostic.Error zero);
  let over = Config_lint.check (lint_view (Jobs.recommended () + 8)) in
  Alcotest.(check bool) "oversubscription flagged" true (has_code "C006" over);
  Alcotest.(check int) "oversubscription is a warning" 1
    (Diagnostic.count Diagnostic.Warning over);
  Alcotest.(check int) "oversubscription is not an error" 0
    (Diagnostic.count Diagnostic.Error over)

let suites =
  [
    ( "exec.pool",
      [
        Alcotest.test_case "map order and reuse" `Quick test_pool_map_in_order;
        Alcotest.test_case "exception propagates" `Quick
          test_pool_exception_propagates;
        Alcotest.test_case "map_counted" `Quick test_pool_map_counted;
        Alcotest.test_case "fault block by index" `Quick
          test_pool_counted_fault_block;
      ] );
    ( "exec.jobs",
      [ Alcotest.test_case "resolution rule" `Quick test_jobs_resolution ] );
    ( "exec.mc",
      [ Alcotest.test_case "pool = serial" `Quick test_mc_pool_equals_serial ] );
    ( "exec.wbga",
      [
        Alcotest.test_case "serial = pooled bit-identical" `Quick
          test_wbga_pool_bit_identical;
      ] );
    ( "exec.flow",
      [
        Alcotest.test_case "-j 1 = -j 4 tables" `Quick
          test_flow_serial_vs_jobs4;
        Alcotest.test_case "kill + resume under -j 4" `Quick
          test_flow_kill_resume_under_pool;
        Alcotest.test_case "fault accounting under -j 4" `Quick
          test_flow_fault_accounting_under_pool;
      ] );
    ( "exec.lint",
      [ Alcotest.test_case "C006 jobs bounds" `Quick test_lint_jobs ] );
  ]
