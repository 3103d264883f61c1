(* Tests for the yield_obs telemetry library: span nesting and per-domain
   merging, histogram quantiles, counter atomicity across domains, JSON /
   JSONL / Chrome-trace serialisation round-trips — plus the determinism
   contract of the instrumented Monte Carlo driver. *)

module Json = Yield_obs.Json
module Histogram = Yield_obs.Histogram
module Metrics = Yield_obs.Metrics
module Span = Yield_obs.Span
module Sampler = Yield_obs.Sampler
module Sink = Yield_obs.Sink
module Stream = Yield_obs.Stream
module Obs = Yield_obs.Obs
module Montecarlo = Yield_process.Montecarlo
module Pool = Yield_exec.Pool
module Rng = Yield_stats.Rng

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

let with_temp suffix f =
  let path = Filename.temp_file "yieldlab_t_obs" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* ---------- spans ---------- *)

(* [f]'s result and the spans that closed while it ran, on any domain, as
   a listener saw them: Span itself keeps no event *)
let recording f =
  let lock = Mutex.create () and closed = ref [] in
  let id =
    Span.subscribe (fun phase e ->
        if phase = Span.Closed then
          Mutex.protect lock (fun () -> closed := e :: !closed))
  in
  let v = Fun.protect ~finally:(fun () -> Span.unsubscribe id) f in
  (v, List.rev !closed)

let named name = List.filter (fun (e : Span.event) -> e.Span.name = name)

let test_span_nesting () =
  let v, events =
    recording (fun () ->
        Span.with_ ~name:"t.outer" (fun () ->
            let a = Span.with_ ~name:"t.inner" (fun () -> 20) in
            let b = Span.with_ ~name:"t.inner" (fun () -> 22) in
            a + b))
  in
  Alcotest.(check int) "value through spans" 42 v;
  let outer =
    match named "t.outer" events with
    | [ e ] -> e
    | es -> Alcotest.failf "expected 1 outer event, got %d" (List.length es)
  in
  let inners = named "t.inner" events in
  Alcotest.(check int) "two inner events" 2 (List.length inners);
  Alcotest.(check int) "outer at depth 0" 0 outer.Span.depth;
  List.iter
    (fun (e : Span.event) ->
      Alcotest.(check int) "inner at depth 1" 1 e.Span.depth;
      Alcotest.(check int) "same domain" outer.Span.tid e.Span.tid;
      Alcotest.(check bool) "inner starts after outer" true
        (e.Span.ts_us >= outer.Span.ts_us);
      Alcotest.(check bool) "inner ends before outer" true
        (e.Span.ts_us +. e.Span.dur_us
        <= outer.Span.ts_us +. outer.Span.dur_us +. 1e-6))
    inners

let test_span_survives_exception () =
  let (), events =
    recording (fun () ->
        try Span.with_ ~name:"t.raises" (fun () -> failwith "boom")
        with Failure _ -> ())
  in
  Alcotest.(check int) "event recorded despite raise" 1
    (List.length (named "t.raises" events))

let test_span_merges_domains () =
  let (), events =
    recording (fun () ->
        let domains =
          Array.init 3 (fun i ->
              Domain.spawn (fun () ->
                  Span.with_ ~name:"t.domain" (fun () ->
                      ignore (Sys.opaque_identity i))))
        in
        Array.iter Domain.join domains;
        Span.with_ ~name:"t.domain" (fun () -> ()))
  in
  let es = named "t.domain" events in
  Alcotest.(check int) "events from every domain survive the join" 4
    (List.length es);
  let tids = List.sort_uniq compare (List.map (fun e -> e.Span.tid) es) in
  Alcotest.(check int) "distinct domain ids" 4 (List.length tids)

(* ---------- histograms ---------- *)

let test_histogram_quantiles () =
  let h = Histogram.create () in
  (* 1..100 in a scrambled order: quantiles must not depend on arrival *)
  let xs = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  Array.iter (Histogram.observe h) xs;
  let s = Histogram.summarize h in
  Alcotest.(check int) "count" 100 s.Histogram.count;
  check_float "sum" 5050. s.Histogram.sum;
  check_float "mean" 50.5 s.Histogram.mean;
  check_float "min" 1. s.Histogram.min;
  check_float "max" 100. s.Histogram.max;
  check_float "p50 (exact on interpolated order stats)" 50.5 s.Histogram.p50;
  check_float "p90" 90.1 s.Histogram.p90;
  check_float "p95" 95.05 s.Histogram.p95;
  check_float "p99" 99.01 s.Histogram.p99;
  check_float "quantile 0" 1. (Histogram.quantile h 0.);
  check_float "quantile 1" 100. (Histogram.quantile h 1.)

let test_histogram_reservoir () =
  (* beyond capacity the moments stay exact and quantiles stay plausible *)
  let h = Histogram.create ~capacity:64 () in
  for i = 1 to 10_000 do
    Histogram.observe h (float_of_int i)
  done;
  let s = Histogram.summarize h in
  Alcotest.(check int) "count exact" 10_000 s.Histogram.count;
  check_float "min exact" 1. s.Histogram.min;
  check_float "max exact" 10_000. s.Histogram.max;
  check_float "mean exact" 5000.5 s.Histogram.mean;
  Alcotest.(check bool) "p50 in bulk" true
    (s.Histogram.p50 > 2000. && s.Histogram.p50 < 8000.)

let test_histogram_empty () =
  let h = Histogram.create () in
  let s = Histogram.summarize h in
  Alcotest.(check int) "count" 0 s.Histogram.count;
  check_float "sum of empty" 0. s.Histogram.sum;
  (* no observations means no min/max/quantiles — nan, not a fake 0 that a
     dashboard would read as "the fastest span took 0 s" *)
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) (what ^ " of empty is nan") true (Float.is_nan v))
    [
      ("mean", s.Histogram.mean);
      ("min", s.Histogram.min);
      ("max", s.Histogram.max);
      ("p50", s.Histogram.p50);
      ("p95", s.Histogram.p95);
      ("p99", s.Histogram.p99);
    ];
  (* and the JSON sinks therefore emit null for them *)
  match Sink.histogram_fields s |> List.assoc "min" |> Json.to_string with
  | "null" -> ()
  | other -> Alcotest.failf "empty min serialised as %s, want null" other

(* ---------- metrics registry ---------- *)

let test_counter_concurrent () =
  let c = Metrics.counter "t.concurrent" in
  let before = Metrics.value c in
  let per_domain = 25_000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  Array.iter Domain.join domains;
  Alcotest.(check int) "no lost increments" (4 * per_domain)
    (Metrics.value c - before)

let test_registry_shares_handles () =
  let a = Metrics.counter "t.shared" in
  let b = Metrics.counter "t.shared" in
  let v0 = Metrics.value a in
  Metrics.add b 5;
  Alcotest.(check int) "same instrument" (v0 + 5) (Metrics.value a);
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "snapshot contains the counter" true
    (List.mem_assoc "t.shared" snap.Metrics.counters)

(* ---------- serialisation ---------- *)

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.String "a\"b\\c\nd\te");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5e-7);
        ("whole", Json.Float 3.0);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Float 2.25; Json.String "x" ]);
        ("o", Json.Obj [ ("nested", Json.Bool false) ]);
      ]
  in
  let text = Json.to_string j in
  (match Json.parse text with
  | Json.Obj kvs ->
      Alcotest.(check int) "all members" 8 (List.length kvs);
      Alcotest.(check string) "string escapes" "a\"b\\c\nd\te"
        (Option.get (Json.string_value (List.assoc "s" kvs)));
      Alcotest.(check bool) "int" true (List.assoc "i" kvs = Json.Int (-42));
      check_float "float" 1.5e-7
        (Option.get (Json.number_value (List.assoc "f" kvs)));
      check_float "whole float" 3.0
        (Option.get (Json.number_value (List.assoc "whole" kvs)))
  | _ -> Alcotest.fail "parsed to a non-object");
  (* second round trip is a fixpoint *)
  Alcotest.(check string) "fixpoint" text (Json.to_string (Json.parse text))

(* a Chrome stream's elements are complete trace events, one per span
   close *)
let test_chrome_trace_roundtrip () =
  let events =
    [
      { Span.name = "alpha"; ts_us = 10.5; dur_us = 1000.25; tid = 0; depth = 0; key = 0 };
      { Span.name = "beta"; ts_us = 20.; dur_us = 4.; tid = 3; depth = 1; key = 2 };
    ]
  in
  with_temp ".json" (fun path ->
      let s = Stream.create ~path () in
      List.iter
        (fun e ->
          Stream.write_event s Span.Opened e;
          Stream.write_event s Span.Closed e)
        events;
      Stream.close s;
      let text = In_channel.with_open_bin path In_channel.input_all in
      (match Json.parse text with
      | Json.List items ->
          Alcotest.(check int) "one trace event per span" 2 (List.length items);
          List.iter2
            (fun (e : Span.event) item ->
              let get k = Option.get (Json.member k item) in
              Alcotest.(check string) "name" e.Span.name
                (Option.get (Json.string_value (get "name")));
              Alcotest.(check string) "complete event" "X"
                (Option.get (Json.string_value (get "ph")));
              check_float "ts" e.Span.ts_us
                (Option.get (Json.number_value (get "ts")));
              check_float "dur" e.Span.dur_us
                (Option.get (Json.number_value (get "dur")));
              check_float "pid" 1. (Option.get (Json.number_value (get "pid")));
              check_float "tid" (float_of_int e.Span.tid)
                (Option.get (Json.number_value (get "tid"))))
            events items
      | _ -> Alcotest.fail "chrome trace is not a JSON array");
      (* a snapshot line is not a trace event: a Chrome stream takes none *)
      match Obs.start_stream ~snapshot_every_s:1. ~path () with
      | () ->
          Obs.stop_stream ();
          Alcotest.fail "a Chrome stream accepted snapshots"
      | exception Invalid_argument _ ->
          Alcotest.(check bool) "nothing armed" false (Obs.stream_active ()))

(* a JSONL stream holds a line per span close and ends with a line per
   counter and histogram *)
let test_jsonl_roundtrip () =
  with_temp ".jsonl" (fun path ->
      Obs.start_stream ~path ();
      Fun.protect ~finally:Obs.stop_stream (fun () ->
          let h = Metrics.histogram "t.jsonl.hist" in
          for i = 1 to 10 do
            Metrics.observe h (float_of_int i)
          done;
          Metrics.add (Metrics.counter "t.jsonl.counter") 7;
          Span.with_ ~name:"t.jsonl.span" (fun () -> ()));
      let lines = (Stream.read_jsonl ~path).Stream.lines in
      Alcotest.(check bool) "several lines" true (List.length lines >= 3);
      let of_type ty name =
        List.find_opt
          (fun j ->
            Json.member "type" j = Some (Json.String ty)
            && Json.member "name" j = Some (Json.String name))
          lines
      in
      (match of_type "counter" "t.jsonl.counter" with
      | Some j ->
          Alcotest.(check bool) "counter value present" true
            (match Json.member "value" j with
            | Some (Json.Int v) -> v >= 7
            | _ -> false)
      | None -> Alcotest.fail "counter line missing");
      (match of_type "histogram" "t.jsonl.hist" with
      | Some j ->
          List.iter
            (fun field ->
              Alcotest.(check bool) (field ^ " present") true
                (Option.is_some (Json.member field j)))
            [ "count"; "sum"; "mean"; "min"; "max"; "p50"; "p90"; "p95"; "p99" ]
      | None -> Alcotest.fail "histogram line missing");
      match of_type "span" "t.jsonl.span" with
      | Some _ -> ()
      | None -> Alcotest.fail "span line missing")

(* ---------- span bus and keys ---------- *)

let test_bus_sees_open_and_close () =
  let seen = ref [] in
  let id =
    Span.subscribe (fun phase (e : Span.event) ->
        if e.Span.name = "t.bus" then seen := (phase, e.Span.dur_us) :: !seen)
  in
  Fun.protect
    ~finally:(fun () -> Span.unsubscribe id)
    (fun () ->
      Span.with_ ~name:"t.bus" (fun () -> ());
      match List.rev !seen with
      | [ (Span.Opened, d0); (Span.Closed, d1) ] ->
          check_float "open event has no duration yet" 0. d0;
          Alcotest.(check bool) "close event has the duration" true (d1 >= 0.)
      | other -> Alcotest.failf "expected open+close, saw %d" (List.length other));
  Span.with_ ~name:"t.bus" (fun () -> ());
  Alcotest.(check int) "unsubscribed listener is silent" 2 (List.length !seen)

let test_span_key_sequences () =
  Span.reset_keys ();
  let k0 = Span.next_key "t.seq.a" in
  let k1 = Span.next_key "t.seq.a" in
  let k2 = Span.next_key "t.seq.b" in
  let k3 = Span.next_key "t.seq.a" in
  Alcotest.(check (list int)) "per-name ordinals" [ 0; 1; 0; 2 ] [ k0; k1; k2; k3 ];
  Span.reset_keys ();
  Alcotest.(check int) "reset restarts the sequence" 0 (Span.next_key "t.seq.a")

(* ---------- deterministic sampling ---------- *)

let with_sampler spec f =
  (match Sampler.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spec %S rejected: %s" spec e);
  Fun.protect ~finally:Sampler.clear f

let test_sampler_spec_parsing () =
  Alcotest.(check bool) "good spec" true
    (Result.is_ok (Sampler.parse "mc.batch=0.1;exec.*=0,ga.generation=1"));
  List.iter
    (fun bad ->
      Alcotest.(check bool)
        (Printf.sprintf "bad spec %S rejected" bad)
        true
        (Result.is_error (Sampler.parse bad)))
    [ "mc.batch"; "mc.batch=2"; "mc.batch=-0.5"; "=0.5"; "mc.batch=x" ]

(* a malformed spec reaching telemetry arming is refused, as the
   settings registry refuses it (C008): never a warning and a run on *)
let test_ensure_telemetry_refuses_bad_spec () =
  Sampler.clear ();
  match Obs.ensure_telemetry ~span_sample:"mc.batch=2" () with
  | () -> Alcotest.fail "a malformed span-sample spec was accepted"
  | exception Invalid_argument _ ->
      Alcotest.(check bool) "no sampler installed" false (Sampler.active ())

let test_sampler_rates_and_precedence () =
  with_sampler "t.samp.always=1;t.samp.never=0;t.samp.*=0.5" (fun () ->
      for key = 0 to 99 do
        Alcotest.(check bool) "rate 1 keeps everything" true
          (Sampler.keep ~name:"t.samp.always" ~key);
        Alcotest.(check bool) "rate 0 drops everything" false
          (Sampler.keep ~name:"t.samp.never" ~key)
      done;
      (* unmatched names are never sampled *)
      Alcotest.(check bool) "no rule means keep" true
        (Sampler.keep ~name:"t.other" ~key:0);
      (* the prefix rule catches the rest at roughly its rate *)
      let kept = ref 0 in
      for key = 0 to 999 do
        if Sampler.keep ~name:"t.samp.half" ~key then incr kept
      done;
      Alcotest.(check bool)
        (Printf.sprintf "rate 0.5 kept %d of 1000" !kept)
        true
        (!kept > 400 && !kept < 600))

let test_sampler_is_a_pure_function () =
  (* the whole determinism story rests on this: the decision depends on
     (name, key) alone — recomputing it anywhere, in any order, on any
     domain, gives the same answer *)
  with_sampler "t.pure.*=0.3" (fun () ->
      let forward = List.init 200 (fun k -> Sampler.keep ~name:"t.pure.x" ~key:k) in
      let backward =
        List.rev (List.init 200 (fun k -> Sampler.keep ~name:"t.pure.x" ~key:(199 - k)))
      in
      Alcotest.(check (list bool)) "order-independent" forward backward;
      let from_domain =
        Domain.join
          (Domain.spawn (fun () ->
               List.init 200 (fun k -> Sampler.keep ~name:"t.pure.x" ~key:k)))
      in
      Alcotest.(check (list bool)) "domain-independent" forward from_domain)

let test_sampled_out_spans_still_feed_metrics () =
  with_sampler "t.thin=0" (fun () ->
      let h = Metrics.histogram "span.t.thin" in
      let n0 = Histogram.count h in
      let (), events =
        recording (fun () ->
            for _ = 1 to 5 do
              Span.with_ ~name:"t.thin" (fun () -> ())
            done)
      in
      Alcotest.(check int) "no event reaches the listeners" 0
        (List.length (named "t.thin" events));
      Alcotest.(check int) "but every span observed in the histogram" 5
        (Histogram.count h - n0))

(* ---------- streaming sink ---------- *)

let test_stream_jsonl_roundtrip () =
  with_temp ".jsonl" (fun path ->
      let s = Stream.create ~path () in
      Alcotest.(check bool) "jsonl by extension" true
        (Stream.format s = Stream.Jsonl);
      let events =
        List.init 5 (fun i ->
            {
              Span.name = "t.stream";
              ts_us = float_of_int (10 * i);
              dur_us = 3.5;
              tid = 0;
              depth = 0;
              key = i;
            })
      in
      List.iter
        (fun e ->
          Stream.write_event s Span.Opened e;
          Stream.write_event s Span.Closed e)
        events;
      Stream.close s;
      Stream.close s (* idempotent *);
      let r = Stream.read_jsonl ~path in
      Alcotest.(check bool) "no truncation" false r.Stream.truncated;
      Alcotest.(check int) "open + close lines" 10 (List.length r.Stream.lines);
      let back = Stream.spans_of_lines r.Stream.lines in
      Alcotest.(check int) "span lines decode" 5 (List.length back);
      List.iter2
        (fun (a : Span.event) (b : Span.event) ->
          Alcotest.(check string) "name" a.Span.name b.Span.name;
          Alcotest.(check int) "key" a.Span.key b.Span.key;
          check_float "ts" a.Span.ts_us b.Span.ts_us)
        events back)

let test_stream_tolerates_truncated_tail () =
  with_temp ".jsonl" (fun path ->
      let s = Stream.create ~path () in
      Stream.write_json s (Json.Obj [ ("type", Json.String "counter") ]);
      Stream.write_json s (Json.Obj [ ("type", Json.String "counter") ]);
      Stream.close s;
      (* simulate a crash mid-write: chop the file inside the final line *)
      let text = In_channel.with_open_bin path In_channel.input_all in
      let chopped = String.sub text 0 (String.length text - 4) in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc chopped);
      let r = Stream.read_jsonl ~path in
      Alcotest.(check bool) "truncation reported" true r.Stream.truncated;
      Alcotest.(check int) "complete lines survive" 1 (List.length r.Stream.lines))

let test_stream_chrome_crash_loadable () =
  with_temp ".json" (fun path ->
      let s = Stream.create ~path () in
      Alcotest.(check bool) "chrome by extension" true
        (Stream.format s = Stream.Chrome);
      let e =
        { Span.name = "t.ct"; ts_us = 1.; dur_us = 2.; tid = 0; depth = 0; key = 0 }
      in
      Stream.write_event s Span.Closed e;
      Stream.write_event s Span.Closed e;
      (* no close: the on-disk state is what a crash leaves behind; the
         array is unterminated but every written element is complete *)
      let text = In_channel.with_open_bin path In_channel.input_all in
      (match Json.parse (text ^ "]") with
      | Json.List items ->
          Alcotest.(check int) "both events present" 2 (List.length items)
      | _ -> Alcotest.fail "not an array");
      Stream.close s;
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Json.List items ->
          Alcotest.(check int) "closed file parses as-is" 2 (List.length items)
      | _ -> Alcotest.fail "closed file is not an array")

(* a full disk stops the stream, never its writer: every write and the
   close return, the first failure is kept, and stopping the facade's
   stream names the path and the cause *)
let test_stream_write_failure () =
  let full = "/dev/full" in
  if Sys.file_exists full then begin
    let s = Stream.create ~path:full () in
    let e =
      {
        Span.name = "t.full";
        ts_us = 1.;
        dur_us = 2.;
        tid = 0;
        depth = 0;
        key = 0;
      }
    in
    Stream.write_event s Span.Opened e;
    Stream.write_event s Span.Closed e;
    Stream.close s;
    Stream.close s;
    Alcotest.(check bool) "the failed write is reported" true
      (Option.is_some (Stream.error s));
    Obs.start_stream ~path:full ();
    let v = Span.with_ ~name:"t.full" (fun () -> 42) in
    Alcotest.(check int) "the span's work goes on" 42 v;
    (match Obs.stop_stream () with
    | () -> Alcotest.fail "stop_stream hid the failed write"
    | exception Sys_error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names the path" msg)
          true
          (String.starts_with ~prefix:(full ^ ": ") msg));
    Alcotest.(check bool) "the stream is stopped" false (Obs.stream_active ())
  end

(* ---------- instrumented Monte Carlo ---------- *)

let test_mc_counted_determinism () =
  let f (r : Rng.t) =
    let x = Rng.float r in
    if x < 0.3 then None else Some (x +. Rng.float r)
  in
  let serial = Montecarlo.run ~samples:64 ~rng:(Rng.create 5) f in
  let parallel =
    Pool.with_pool ~jobs:2 (fun pool ->
        Montecarlo.run ~pool ~samples:64 ~rng:(Rng.create 5) f)
  in
  Alcotest.(check bool) "identical results" true
    (serial.Montecarlo.results = parallel.Montecarlo.results);
  Alcotest.(check int) "same attempted" serial.Montecarlo.attempted
    parallel.Montecarlo.attempted;
  Alcotest.(check int) "same failed" serial.Montecarlo.failed
    parallel.Montecarlo.failed;
  Alcotest.(check int) "attempted = samples" 64 serial.Montecarlo.attempted;
  Alcotest.(check int) "accounting adds up" 64
    (Array.length serial.Montecarlo.results + serial.Montecarlo.failed)

let test_mc_feeds_counters () =
  let attempted = Metrics.counter "mc.samples.attempted" in
  let failed = Metrics.counter "mc.samples.failed" in
  let a0 = Metrics.value attempted and f0 = Metrics.value failed in
  let outcome =
    Montecarlo.run ~samples:50 ~rng:(Rng.create 1) (fun r ->
        let x = Rng.float r in
        if x < 0.5 then None else Some x)
  in
  Alcotest.(check int) "attempted counter delta" 50
    (Metrics.value attempted - a0);
  Alcotest.(check int) "failed counter delta" outcome.Montecarlo.failed
    (Metrics.value failed - f0);
  Alcotest.(check bool) "some failed in this stream" true
    (outcome.Montecarlo.failed > 0)

let suites =
  [
    ( "obs.span",
      [
        Alcotest.test_case "nesting" `Quick test_span_nesting;
        Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
        Alcotest.test_case "domain merge" `Quick test_span_merges_domains;
      ] );
    ( "obs.histogram",
      [
        Alcotest.test_case "quantiles" `Quick test_histogram_quantiles;
        Alcotest.test_case "reservoir" `Quick test_histogram_reservoir;
        Alcotest.test_case "empty" `Quick test_histogram_empty;
      ] );
    ( "obs.metrics",
      [
        Alcotest.test_case "concurrent counters" `Quick test_counter_concurrent;
        Alcotest.test_case "shared handles" `Quick test_registry_shares_handles;
      ] );
    ( "obs.serialisation",
      [
        Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "chrome trace" `Quick test_chrome_trace_roundtrip;
        Alcotest.test_case "jsonl" `Quick test_jsonl_roundtrip;
      ] );
    ( "obs.bus",
      [
        Alcotest.test_case "bus open/close" `Quick test_bus_sees_open_and_close;
        Alcotest.test_case "key sequences" `Quick test_span_key_sequences;
      ] );
    ( "obs.sampler",
      [
        Alcotest.test_case "spec parsing" `Quick test_sampler_spec_parsing;
        Alcotest.test_case "bad spec refused by arming" `Quick
          test_ensure_telemetry_refuses_bad_spec;
        Alcotest.test_case "rates and precedence" `Quick
          test_sampler_rates_and_precedence;
        Alcotest.test_case "pure function" `Quick test_sampler_is_a_pure_function;
        Alcotest.test_case "metrics stay complete" `Quick
          test_sampled_out_spans_still_feed_metrics;
      ] );
    ( "obs.stream",
      [
        Alcotest.test_case "jsonl roundtrip" `Quick test_stream_jsonl_roundtrip;
        Alcotest.test_case "truncated tail" `Quick
          test_stream_tolerates_truncated_tail;
        Alcotest.test_case "chrome crash-loadable" `Quick
          test_stream_chrome_crash_loadable;
        Alcotest.test_case "write failure" `Quick test_stream_write_failure;
      ] );
    ( "obs.montecarlo",
      [
        Alcotest.test_case "counted determinism" `Quick
          test_mc_counted_determinism;
        Alcotest.test_case "feeds counters" `Quick test_mc_feeds_counters;
      ] );
  ]
