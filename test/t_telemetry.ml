(* End-to-end tests of the streaming telemetry path and the perf-regression
   gate: a reduced-scale flow streamed to disk (every span its listeners saw
   is on disk, with the final metric lines), jobs-independence of the
   sampling decisions, and the Perf_gate tolerance/identity rules. *)

module Json = Yield_obs.Json
module Metrics = Yield_obs.Metrics
module Span = Yield_obs.Span
module Sampler = Yield_obs.Sampler
module Stream = Yield_obs.Stream
module Snapshot = Yield_obs.Snapshot
module Obs = Yield_obs.Obs
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Perf_gate = Yield_core.Perf_gate
module Ga = Yield_ga.Ga
module Montecarlo = Yield_process.Montecarlo
module Pool = Yield_exec.Pool
module Rng = Yield_stats.Rng

(* the t_core smoke configuration: the whole flow in a few seconds *)
let smoke_config =
  {
    Config.fast_scale with
    Config.ga =
      { Ga.default_config with Ga.population_size = 24; generations = 12 };
    mc_samples = 12;
    front_stride = 2;
    seed = 31;
  }

let span_id (e : Span.event) = (e.Span.name, e.Span.key, e.Span.ts_us)

let with_temp = T_obs.with_temp

let recording = T_obs.recording

(* ---------- streamed flow: the complete log ---------- *)

let test_flow_stream_complete () =
  with_temp ".jsonl" (fun path ->
      Fun.protect ~finally:Obs.stop_stream (fun () ->
          Obs.start_stream ~snapshot_every_s:0.001 ~path ();
          Alcotest.(check bool) "stream active" true (Obs.stream_active ());
          let _, closed = recording (fun () -> Flow.run smoke_config) in
          Obs.stop_stream ();
          Alcotest.(check bool) "stream stopped" false (Obs.stream_active ());
          let r = Stream.read_jsonl ~path in
          Alcotest.(check bool) "clean shutdown, no truncation" false
            r.Stream.truncated;
          let streamed = Stream.spans_of_lines r.Stream.lines in
          (* the stream holds every span the run closed, and only those *)
          let sort l = List.sort compare (List.map span_id l) in
          Alcotest.(check int) "one line per closed span" (List.length closed)
            (List.length streamed);
          Alcotest.(check bool) "the spans the listeners saw" true
            (sort closed = sort streamed);
          (* flow stage spans reached the file *)
          List.iter
            (fun stage ->
              Alcotest.(check bool) (stage ^ " streamed") true
                (List.exists
                   (fun (e : Span.event) -> e.Span.name = stage)
                   streamed))
            [ "flow.run"; "flow.wbga"; "flow.mc"; "ga.generation"; "mc.batch" ];
          (* snapshots rode the stream, and the final metric lines match the
             registry *)
          let of_type ty =
            List.filter
              (fun j -> Json.member "type" j = Some (Json.String ty))
              r.Stream.lines
          in
          Alcotest.(check bool) "snapshot lines present" true
            (List.length (of_type "snapshot") >= 1);
          let snap = Metrics.snapshot () in
          let counter_lines = of_type "counter" in
          Alcotest.(check int) "one final line per counter"
            (List.length snap.Metrics.counters)
            (List.length counter_lines);
          List.iter
            (fun (name, v) ->
              match
                List.find_opt
                  (fun j ->
                    Json.member "name" j = Some (Json.String name))
                  counter_lines
              with
              | None -> Alcotest.failf "counter %s missing from stream" name
              | Some j ->
                  Alcotest.(check bool) (name ^ " value") true
                    (Json.member "value" j = Some (Json.Int v)))
            snap.Metrics.counters))

(* ---------- sampling is independent of the jobs count ---------- *)

(* the keys of the kept mc.batch spans, and the kept exec.worker spans *)
let kept_mc_keys ~jobs =
  Span.reset_keys ();
  let (), closed =
    recording (fun () ->
        Pool.with_pool ~jobs (fun pool ->
            for batch = 0 to 29 do
              ignore
                (Montecarlo.run ~pool ~samples:8
                   ~rng:(Rng.create (100 + batch)) (fun r ->
                     Some (Rng.float r))) [@warning "-5"]
            done))
  in
  let key (e : Span.event) = e.Span.key in
  ( List.sort compare (List.map key (T_obs.named "mc.batch" closed)),
    List.length (T_obs.named "exec.worker" closed) )

let test_sampling_identical_across_jobs () =
  (match Sampler.configure "mc.batch=0.4;exec.*=0" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spec rejected: %s" e);
  Fun.protect ~finally:Sampler.clear (fun () ->
      let serial, _ = kept_mc_keys ~jobs:1 in
      let parallel, workers = kept_mc_keys ~jobs:4 in
      Alcotest.(check bool) "sampling thinned the batches" true
        (List.length serial < 30 && List.length serial > 0);
      Alcotest.(check (list int)) "identical kept set at jobs 1 and 4" serial
        parallel;
      (* exec.worker fully sampled out even at jobs 4 *)
      Alcotest.(check int) "exec.worker suppressed" 0 workers)

(* ---------- periodic snapshots ---------- *)

let test_snapshot_deltas () =
  let emitted = ref [] in
  let snap =
    Snapshot.create ~every_s:3600. ~emit:(fun j -> emitted := j :: !emitted)
  in
  Snapshot.tick snap;
  Alcotest.(check int) "not due yet" 0 (List.length !emitted);
  let c = Metrics.counter "t.snapshot.counter" in
  Metrics.add c 5;
  Snapshot.force snap;
  Metrics.add c 2;
  Snapshot.force snap;
  match List.rev !emitted with
  | [ first; second ] ->
      let delta_of j =
        match Json.member "counters" j with
        | Some counters ->
            Option.bind
              (Json.member "t.snapshot.counter" counters)
              (Json.member "delta")
        | None -> None
      in
      Alcotest.(check bool) "first snapshot carries the full value as delta"
        true
        (delta_of first = Some (Json.Int 5)
        || (* other suites may have touched the counter before us: the
              first delta is then value-relative, but the second is exact *)
        Option.is_some (delta_of first));
      Alcotest.(check bool) "second snapshot carries only the increment" true
        (delta_of second = Some (Json.Int 2))
  | l -> Alcotest.failf "expected 2 snapshots, got %d" (List.length l)

(* ---------- the perf-regression gate ---------- *)

let bench_fixture ?(opt_s = 10.) ?(mc_s = 4.) ?(total_s = 15.) ?(mc_sims = 840)
    ?(counters = [ ("mc.samples.attempted", 840); ("wbga.evaluations", 288) ])
    ?cores ?alloc () =
  Json.Obj
    ([
      ("scale", Json.String "reduced-scale");
      ("jobs", Json.Int 1);
    ]
    @ Option.fold ~none:[]
        ~some:(fun w ->
          [ ("alloc", Json.Obj [ ("minor_words_per_sim", Json.Float w) ]) ])
        alloc
    @ Option.fold ~none:[] ~some:(fun c -> [ ("cores", Json.Int c) ]) cores
    @ [
      ( "stage_s",
        Json.Obj
          [
            ("optimisation", Json.Float opt_s);
            ("mc", Json.Float mc_s);
            ("total", Json.Float total_s);
          ] );
      ( "sim_counts",
        Json.Obj [ ("mc", Json.Int mc_sims); ("total", Json.Int 1128) ] );
      ( "counters",
        Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters) );
      ("histograms", Json.Obj [ ("span.flow.run", Json.Obj []) ]);
    ])

let tight = { Perf_gate.frac = 0.10; abs_s = 0. }

let baseline ?tolerance fixture =
  Perf_gate.baseline_of_bench ?tolerance fixture

let fields findings = List.map (fun f -> f.Perf_gate.field) findings

let test_gate_passes_on_itself () =
  let fixture = bench_fixture () in
  Alcotest.(check (list string)) "no findings against itself" []
    (fields (Perf_gate.check ~baseline:(baseline ~tolerance:tight fixture)
               ~bench:fixture))

let test_gate_catches_timing_regression () =
  let base = baseline ~tolerance:tight (bench_fixture ()) in
  (* the acceptance fixture: a 20 % slowdown must fail a 10 % gate *)
  let slowed = bench_fixture ~opt_s:12. ~total_s:17. () in
  let found = fields (Perf_gate.check ~baseline:base ~bench:slowed) in
  Alcotest.(check bool) "optimisation flagged" true
    (List.mem "stage_s.optimisation" found);
  Alcotest.(check bool) "total flagged" true (List.mem "stage_s.total" found);
  Alcotest.(check bool) "mc untouched" false (List.mem "stage_s.mc" found);
  (* 5 % stays inside the 10 % tolerance *)
  Alcotest.(check (list string)) "5 % passes" []
    (fields
       (Perf_gate.check ~baseline:base ~bench:(bench_fixture ~opt_s:10.5 ())));
  (* a faster run never fails *)
  Alcotest.(check (list string)) "speedup passes" []
    (fields
       (Perf_gate.check ~baseline:base ~bench:(bench_fixture ~opt_s:5. ())))

let test_gate_absolute_slack () =
  (* the checked-in baseline carries abs_s slack for cross-machine noise:
     2 s of absolute drift passes, counts still gate exactly *)
  let base = baseline (bench_fixture ~opt_s:0.5 ()) in
  Alcotest.(check (list string)) "constant-factor drift absorbed" []
    (fields
       (Perf_gate.check ~baseline:base ~bench:(bench_fixture ~opt_s:2.2 ())));
  let drifted = bench_fixture ~opt_s:0.5 ~mc_sims:841 () in
  Alcotest.(check bool) "sim-count drift still fails" true
    (List.mem "sim_counts.mc"
       (fields (Perf_gate.check ~baseline:base ~bench:drifted)))

let test_gate_catches_count_and_counter_drift () =
  let base = baseline ~tolerance:tight (bench_fixture ()) in
  let value_drift =
    bench_fixture ~counters:[ ("mc.samples.attempted", 839); ("wbga.evaluations", 288) ] ()
  in
  Alcotest.(check bool) "counter value drift" true
    (List.mem "counters.mc.samples.attempted"
       (fields (Perf_gate.check ~baseline:base ~bench:value_drift)));
  let vanished =
    bench_fixture ~counters:[ ("mc.samples.attempted", 840) ] ()
  in
  Alcotest.(check bool) "vanished counter" true
    (List.mem "counters.wbga.evaluations"
       (fields (Perf_gate.check ~baseline:base ~bench:vanished)));
  let appeared =
    bench_fixture
      ~counters:
        [
          ("mc.samples.attempted", 840);
          ("wbga.evaluations", 288);
          ("span.sampled_out", 3);
        ]
      ()
  in
  Alcotest.(check bool) "new counter needs a baseline refresh" true
    (List.mem "counters.span.sampled_out"
       (fields (Perf_gate.check ~baseline:base ~bench:appeared)))

(* at jobs = 1 no counter depends on the machine, so every counter is
   compared whatever cores the two documents carry *)
let test_gate_counters_across_cores () =
  let counters findings =
    [
      ("mc.samples.attempted", 840);
      ("preflight.findings", findings);
      ("wbga.evaluations", 288);
    ]
  in
  let base =
    baseline ~tolerance:tight (bench_fixture ~cores:1 ~counters:(counters 0) ())
  in
  let check what expected bench =
    Alcotest.(check (list string)) what expected
      (fields (Perf_gate.check ~baseline:base ~bench))
  in
  check "other cores, same counters: passes" []
    (bench_fixture ~cores:2 ~counters:(counters 0) ());
  check "other cores, counter differs: a finding"
    [ "counters.preflight.findings" ]
    (bench_fixture ~cores:2 ~counters:(counters 1) ());
  check "unknown cores, counter differs: a finding"
    [ "counters.preflight.findings" ]
    (bench_fixture ~counters:(counters 1) ());
  Alcotest.(check bool) "the baseline carries cores" true
    (Json.member "cores" base = Some (Json.Int 1))

(* a tolerance that is present but malformed is a finding, never replaced
   by a default; an absent one is the documented default *)
let test_gate_malformed_tolerance () =
  let fixture = bench_fixture () in
  let with_tolerance tol =
    match baseline fixture with
    | Json.Obj kvs ->
        Json.Obj
          (List.filter_map
             (fun (k, v) ->
               if k <> "tolerance" then Some (k, v)
               else Option.map (fun t -> (k, t)) tol)
             kvs)
    | other -> other
  in
  let check what expected tol =
    Alcotest.(check (list string)) what expected
      (fields (Perf_gate.check ~baseline:(with_tolerance tol) ~bench:fixture))
  in
  check "absent: default" [] None;
  check "fields absent: default" [] (Some (Json.Obj []));
  check "negative frac"
    [ "tolerance.frac" ]
    (Some (Json.Obj [ ("frac", Json.Float (-0.1)); ("abs_s", Json.Float 0.) ]));
  check "string abs_s"
    [ "tolerance.abs_s" ]
    (Some (Json.Obj [ ("frac", Json.Float 0.1); ("abs_s", Json.String "2") ]));
  check "null frac, negative abs_s"
    [ "tolerance.frac"; "tolerance.abs_s" ]
    (Some (Json.Obj [ ("frac", Json.Null); ("abs_s", Json.Int (-1)) ]));
  check "not an object" [ "tolerance" ] (Some (Json.Float 0.1))

(* allocation per simulation does not depend on the machine: it gates
   with the baseline's frac and none of its absolute timing slack *)
let test_gate_allocation () =
  let check what want bench base =
    Alcotest.(check (list string)) what want
      (fields (Perf_gate.check ~baseline:base ~bench))
  in
  (* the checked-in baseline's tolerance: 10 % and 2 s of timing slack *)
  let base = baseline (bench_fixture ~alloc:1000. ()) in
  Alcotest.(check bool) "the baseline carries the key" true
    (Option.is_some (Json.member "alloc" base));
  check "itself" [] (bench_fixture ~alloc:1000. ()) base;
  check "9 % more passes" [] (bench_fixture ~alloc:1090. ()) base;
  check "less always passes" [] (bench_fixture ~alloc:400. ()) base;
  check "20 % more fails on that key alone"
    [ "alloc.minor_words_per_sim" ]
    (bench_fixture ~alloc:1200. ()) base;
  check "a run without the key fails" [ "alloc.minor_words_per_sim" ]
    (bench_fixture ()) base;
  check "a key the baseline lacks fails" [ "alloc.minor_words_per_sim" ]
    (bench_fixture ~alloc:1000. ())
    (baseline (bench_fixture ()))

let test_gate_run_identity () =
  let base = baseline ~tolerance:tight (bench_fixture ()) in
  let other_scale =
    match bench_fixture () with
    | Json.Obj kvs ->
        Json.Obj
          (List.map
             (function
               | "scale", _ -> ("scale", Json.String "paper-scale")
               | kv -> kv)
             kvs)
    | j -> j
  in
  Alcotest.(check bool) "scale mismatch flagged" true
    (List.mem "scale"
       (fields (Perf_gate.check ~baseline:base ~bench:other_scale)))

let test_baseline_of_bench_shape () =
  let b = baseline (bench_fixture ()) in
  Alcotest.(check bool) "schema tag" true
    (Json.member "schema" b
    = Some (Json.String "yieldlab-bench-baseline/v1"));
  Alcotest.(check bool) "histograms dropped (timing noise)" true
    (Json.member "histograms" b = None);
  Alcotest.(check bool) "tolerance block present" true
    (Option.is_some (Json.member "tolerance" b));
  (* a written baseline round-trips through the parser *)
  let reparsed = Json.parse (Json.to_string b) in
  Alcotest.(check (list string)) "reparsed baseline accepts its own bench" []
    (fields (Perf_gate.check ~baseline:reparsed ~bench:(bench_fixture ())))

(* ---------- env-derived settings ---------- *)

module Diagnostic = Yield_analyse.Diagnostic

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* a malformed setting is refused with one C008 error per setting, naming
   the variable or flag and quoting its text *)
let check_refused what expected = function
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error diags ->
      Alcotest.(check (list (pair string string)))
        (what ^ ": C008 per setting")
        (List.map (fun (setting, _) -> ("C008", setting)) expected)
        (List.map (fun d -> (d.Diagnostic.code, d.Diagnostic.subject)) diags);
      List.iter2
        (fun (_, value) d ->
          let quoted = Printf.sprintf "%S" value in
          let msg = d.Diagnostic.message in
          if not (contains ~sub:quoted msg) then
            Alcotest.failf "%s: %S does not quote %s" what msg quoted;
          Alcotest.(check bool) (what ^ ": error") true
            (d.Diagnostic.severity = Diagnostic.Error))
        expected diags

(* the settings every subcommand takes, from their flags and variables *)
let global_settings ?flags () =
  Config.resolve ~scope:Config.Global ?flags (Config.base ())

let test_telemetry_settings () =
  let set k v = Unix.putenv k v in
  let telemetry () =
    match global_settings () with
    | Ok c -> c.Config.telemetry
    | Error _ -> Alcotest.fail "well-formed telemetry settings refused"
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun k -> set k "")
        [ "YIELDLAB_TRACE_STREAM"; "YIELDLAB_SPAN_SAMPLE"; "YIELDLAB_SNAPSHOT_EVERY" ])
    (fun () ->
      set "YIELDLAB_TRACE_STREAM" "/tmp/t.jsonl";
      set "YIELDLAB_SPAN_SAMPLE" "mc.batch=0.5";
      set "YIELDLAB_SNAPSHOT_EVERY" "2.5";
      let t = telemetry () in
      Alcotest.(check (option string)) "stream path" (Some "/tmp/t.jsonl")
        t.Config.trace_stream;
      Alcotest.(check (option string)) "sample spec" (Some "mc.batch=0.5")
        t.Config.span_sample;
      Alcotest.(check bool) "snapshot seconds" true
        (t.Config.snapshot_every_s = Some 2.5);
      List.iter
        (fun bad ->
          set "YIELDLAB_SNAPSHOT_EVERY" bad;
          check_refused ("snapshot interval " ^ bad)
            [ ("YIELDLAB_SNAPSHOT_EVERY", bad) ]
            (global_settings ()))
        [ "nonsense"; "0"; "-1"; "nan" ];
      (* a flag goes through the same parser, and its variable is unread *)
      check_refused "--snapshot-every 0"
        [ ("--snapshot-every", "0") ]
        (global_settings ~flags:[ ("snapshot_every", "0") ] ());
      (* an interval without a JSONL stream would never be written: a
         Chrome array holds trace events only *)
      set "YIELDLAB_SNAPSHOT_EVERY" "2.5";
      set "YIELDLAB_TRACE_STREAM" "/tmp/t.json";
      check_refused "snapshot with a Chrome stream"
        [ ("YIELDLAB_SNAPSHOT_EVERY", "2.5") ]
        (global_settings ());
      check_refused "--snapshot-every with a Chrome stream"
        [ ("--snapshot-every", "2.5") ]
        (global_settings
           ~flags:[ ("trace_stream", "t.json"); ("snapshot_every", "2.5") ]
           ());
      set "YIELDLAB_TRACE_STREAM" "";
      check_refused "snapshot without a stream"
        [ ("YIELDLAB_SNAPSHOT_EVERY", "2.5") ]
        (global_settings ());
      set "YIELDLAB_SNAPSHOT_EVERY" "";
      (* span-sample specs are checked with Sampler.parse *)
      set "YIELDLAB_SPAN_SAMPLE" "garbage";
      check_refused "span sample" [ ("YIELDLAB_SPAN_SAMPLE", "garbage") ]
        (global_settings ());
      check_refused "--span-sample" [ ("--span-sample", "garbage") ]
        (global_settings ~flags:[ ("span_sample", "garbage") ] ());
      set "YIELDLAB_SPAN_SAMPLE" "";
      let t = telemetry () in
      Alcotest.(check (option string)) "empty var is unset" None
        t.Config.trace_stream;
      Alcotest.(check bool) "empty interval is unset" true
        (t.Config.snapshot_every_s = None);
      Alcotest.(check bool) "fingerprint ignores telemetry" true
        (Config.fingerprint smoke_config
        = Config.fingerprint
            {
              smoke_config with
              Config.telemetry =
                {
                  Config.trace_stream = Some "x.jsonl";
                  span_sample = Some "mc.batch=0";
                  snapshot_every_s = Some 1.;
                };
            }))

let test_prescreen_settings () =
  let set k v = Unix.putenv k v in
  let vars =
    [
      "YIELDLAB_PRESCREEN_K";
      "YIELDLAB_PRESCREEN_MIN_GAIN";
      "YIELDLAB_PRESCREEN_MIN_PM";
      "YIELDLAB_PRESCREEN_PASS_BUDGET";
    ]
  in
  let clear () = List.iter (fun k -> set k "") ("YIELDLAB_PRESCREEN" :: vars) in
  let resolve ?flags () = Config.resolve ?flags (Config.base ()) in
  Fun.protect ~finally:clear (fun () ->
      (* the knobs are read, and refused when malformed, with the prescreen
         off as well *)
      set "YIELDLAB_PRESCREEN_K" "abc";
      check_refused "off: knobs refused" [ ("YIELDLAB_PRESCREEN_K", "abc") ]
        (resolve ());
      List.iter
        (fun (var, bad) ->
          clear ();
          set "YIELDLAB_PRESCREEN" "1";
          set var bad;
          check_refused
            (Printf.sprintf "%s=%s" var bad)
            [ (var, bad) ]
            (resolve ()))
        [
          ("YIELDLAB_PRESCREEN_K", "abc");
          ("YIELDLAB_PRESCREEN_MIN_GAIN", "sixty");
          ("YIELDLAB_PRESCREEN_MIN_PM", "45deg");
          ("YIELDLAB_PRESCREEN_PASS_BUDGET", "0");
          ("YIELDLAB_PRESCREEN_PASS_BUDGET", "1.5");
          ("YIELDLAB_PRESCREEN_PASS_BUDGET", "half");
        ];
      (* every malformed variable is reported, not just the first *)
      set "YIELDLAB_PRESCREEN_K" "abc";
      check_refused "two at once"
        [ ("YIELDLAB_PRESCREEN_K", "abc"); ("YIELDLAB_PRESCREEN_PASS_BUDGET", "half") ]
        (resolve ());
      (* well-formed values run as before *)
      List.iter2 set vars [ "0.5"; "60"; "45"; "0.25" ];
      Alcotest.(check bool) "well-formed knobs" true
        (Result.map (fun c -> c.Config.prescreen) (resolve ())
        = Ok
            {
              Config.enabled = true;
              k_sigma = 0.5;
              min_gain_db = 60.;
              min_pm_deg = 45.;
              pass_budget_frac = 0.25;
            });
      clear ();
      let flags b = resolve ~flags:[ ("prescreen", "1"); ("prescreen_budget", b) ] () in
      List.iter
        (fun text ->
          check_refused ("--prescreen-budget " ^ text) [ ("--prescreen-budget", text) ]
            (flags text))
        [ "0"; "1.5"; "-0.25" ];
      Alcotest.(check bool) "--prescreen-budget 1" true
        (Result.map (fun c -> c.Config.prescreen.Config.pass_budget_frac) (flags "1")
        = Ok 1.))

let suites =
  [
    ( "telemetry.stream",
      [
        Alcotest.test_case "flow: complete log" `Slow
          test_flow_stream_complete;
        Alcotest.test_case "snapshot deltas" `Quick test_snapshot_deltas;
      ] );
    ( "telemetry.sampling",
      [
        Alcotest.test_case "jobs-independent decisions" `Quick
          test_sampling_identical_across_jobs;
      ] );
    ( "telemetry.perf-gate",
      [
        Alcotest.test_case "passes on itself" `Quick test_gate_passes_on_itself;
        Alcotest.test_case "timing regression" `Quick
          test_gate_catches_timing_regression;
        Alcotest.test_case "absolute slack" `Quick test_gate_absolute_slack;
        Alcotest.test_case "count and counter drift" `Quick
          test_gate_catches_count_and_counter_drift;
        Alcotest.test_case "run identity" `Quick test_gate_run_identity;
        Alcotest.test_case "allocation per simulation" `Quick
          test_gate_allocation;
        Alcotest.test_case "baseline shape" `Quick test_baseline_of_bench_shape;
        Alcotest.test_case "counters across cores" `Quick
          test_gate_counters_across_cores;
        Alcotest.test_case "malformed tolerance" `Quick
          test_gate_malformed_tolerance;
      ] );
    ( "telemetry.config",
      [
        Alcotest.test_case "env knobs" `Quick test_telemetry_settings;
        Alcotest.test_case "prescreen settings refused" `Quick
          test_prescreen_settings;
      ] );
  ]
