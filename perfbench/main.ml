(* perfbench: end-to-end and per-layer measurement of the yield-aware
   modelling flow, driven only through the libraries' public interfaces.
   perfbench/run.py builds and drives this program; perfbench/README.md
   defines the workloads and every metric.

     main.exe run --workload W --seed N --seconds S --trace 0|1 --work DIR
     main.exe setup --workload W --seed N --work DIR
     main.exe fixtures --work DIR

   [run] measures one workload and prints one JSON object as its last line.
   [setup] performs only a flow workload's set-up (one cold flow in a fresh
   process) and prints its time.  [fixtures] prints the table digests the
   flow workloads check, for pasting into [flow_fixtures] below when a
   change to the tables is intended. *)

module Json = Yield_obs.Json
module Clock = Yield_obs.Clock
module Metrics = Yield_obs.Metrics
module Histogram = Yield_obs.Histogram
module Obs = Yield_obs.Obs
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Gtb = Yield_circuits.Testbench
module Ota = Yield_circuits.Ota
module Miller = Yield_circuits.Miller
module Rng = Yield_stats.Rng
module Genome = Yield_ga.Genome
module Wbga = Yield_ga.Wbga
module Linsys = Yield_numeric.Linsys
module Mna = Yield_spice.Mna
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Device = Yield_spice.Device
module Mosfet = Yield_spice.Mosfet
module Circuit = Yield_spice.Circuit
module Variation = Yield_process.Variation
module Corner_lint = Yield_analyse.Corner_lint
module Perf_model = Yield_behavioural.Perf_model
module Macromodel = Yield_behavioural.Macromodel
module Addr = Yield_serve.Addr
module Client = Yield_serve.Client
module Handle = Yield_serve.Handle
module Loadgen = Yield_serve.Loadgen
module Server = Yield_serve.Server
module Snapshot = Yield_serve.Snapshot
module Wire = Yield_serve.Wire

let now = Clock.now_s

let started_s = now ()

(* ---------- statistics ---------- *)

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  if Array.length a = 0 then Float.nan else Histogram.quantile_of_sorted a q

let median xs = quantile xs 0.5

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ---------- the record of one run ---------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable mismatches : string list;  (** failed correctness checks *)
  mutable setup : float list;  (** set-up samples, s *)
  mutable calib : float list;  (** canary times, ms *)
  mutable last_calib : float;
  mutable metrics : (string * float) list;  (** units: BENCHMARK.json *)
  mutable diag : (string * Json.t) list;
}

let check r ok what = if not ok then r.mismatches <- what :: r.mismatches

let metric r name v = r.metrics <- (name, v) :: r.metrics

let diag r name v = r.diag <- (name, v) :: r.diag

(* One operation towards [attempted]; an exception counts it as failed. *)
let attempt r f =
  r.attempted <- r.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
      r.failed <- r.failed + 1;
      diag r "last_failure" (Json.String (Printexc.to_string e));
      None

(* The interference canary: a fixed float kernel over a 4 KiB array, so
   L1-resident, whose time depends only on how fast the machine runs this
   process at the moment.  Between units the program times one kernel per
   quarter second elapsed since the last (so long units get as many samples
   as short ones); the median is the diagnostic env.calib_ms.  It only
   shows interference: the workloads slow down by other factors than it
   does, so dividing unit times by it does not hold them steady
   (perfbench/README.md, Noise). *)
let canary_data = Array.make 512 1.

let canary_once () =
  let a = canary_data in
  let t0 = now () in
  for _ = 1 to 2_000 do
    for i = 0 to Array.length a - 1 do
      a.(i) <- (a.(i) *. 0.999_999_9) +. 1e-7
    done
  done;
  (now () -. t0) *. 1e3

let canary r =
  let n = Stdlib.min 20 (Float.to_int ((now () -. r.last_calib) /. 0.25)) in
  for _ = 1 to n do
    r.calib <- canary_once () :: r.calib
  done;
  if n > 0 then r.last_calib <- now ()

type cost = { secs : float; words : float; majors : int }

let measured f =
  let w0 = Gc.minor_words () in
  let m0 = (Gc.quick_stat ()).Gc.major_collections in
  let t0 = now () in
  let v = f () in
  let secs = now () -. t0 in
  ( v,
    {
      secs;
      words = Gc.minor_words () -. w0;
      majors = (Gc.quick_stat ()).Gc.major_collections - m0;
    } )

(* Run [unit i] back to back for [seconds] (the last unit may overrun, and
   at least [min_units] run), with the canary between units. *)
let measure_for ?(min_units = 1) r ~seconds unit =
  let t_end = now () +. seconds in
  let costs = ref [] in
  let i = ref 0 in
  while !i < min_units || now () < t_end do
    (match unit !i with Some c -> costs := c :: !costs | None -> ());
    incr i;
    canary r
  done;
  List.rev !costs

(* Median per-call time of [f] in microseconds: [reps] batches of [batch]
   calls after one warm call. *)
let per_call_us ?(reps = 5) ~batch f =
  ignore (Sys.opaque_identity (f ()));
  median
    (List.init reps (fun _ ->
         let t0 = now () in
         for _ = 1 to batch do
           ignore (Sys.opaque_identity (f ()))
         done;
         (now () -. t0) /. float_of_int batch *. 1e6))

(* The spread of the unit times inside one run, as a diagnostic. *)
let unit_spread r xs =
  diag r "units"
    (Json.Obj
       [
         ("n", Json.Int (List.length xs));
         ("min", Json.Float (List.fold_left Float.min Float.infinity xs));
         ("q1", Json.Float (quantile xs 0.25));
         ("median", Json.Float (median xs));
         ("q3", Json.Float (quantile xs 0.75));
       ])

(* unit_us is the fastest unit of the run.  Interference on the shared
   machine only ever adds time, in phases of a fraction of a second to
   minutes; over sets of ten runs the fastest unit spread 6-14 % where the
   median unit spread 13-48 % (perfbench/README.md, Noise). *)
let report_units r units =
  unit_spread r units;
  metric r "unit_us" (List.fold_left Float.min Float.infinity units)

let gc_metrics r (costs : cost list) =
  metric r "gc.minor_kw" (median (List.map (fun c -> c.words /. 1e3) costs));
  metric r "gc.major_collections"
    (median (List.map (fun c -> float_of_int c.majors) costs));
  metric r "gc.top_heap_mb"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6)

(* The library's span stream, armed around the traced half of the units:
   obs.trace_overhead_pct compares their median with the other half's. *)
let with_stream ~work on f =
  if not on then f ()
  else begin
    Obs.start_stream ~path:(Filename.concat work "trace.jsonl") ();
    Fun.protect ~finally:Obs.stop_stream f
  end

(* Unit times split by whether the span stream was armed. *)
type halves = { mutable traced : float list; mutable plain : float list }

let halves () = { traced = []; plain = [] }

let add_half h ~on x = if on then h.traced <- x :: h.traced else h.plain <- x :: h.plain

let overhead_pct h =
  if h.traced = [] || h.plain = [] then 0.
  else 100. *. ((median h.traced /. median h.plain) -. 1.)

(* ---------- the simulation stack, probed through public calls ---------- *)

let mosfet_biases circuit x =
  Array.to_list (Circuit.devices circuit)
  |> List.filter_map (function
       | Device.Mosfet { model; w; l; d; g; s; b; _ } ->
           let v = Mna.voltage x in
           (* Mosfet.eval takes NMOS-normalised biases *)
           let sign =
             match model.Mosfet.polarity with Mosfet.Nmos -> 1. | Pmos -> -1.
           in
           Some
             ( model,
               w,
               l,
               sign *. (v g -. v s),
               sign *. (v d -. v s),
               sign *. (v b -. v s) )
       | _ -> None)

module Stack (A : Yield_circuits.Amplifier.S) = struct
  module T = Gtb.Make (A)

  (* Per-layer costs on one design's testbench, each timed around the
     layer's own public call. *)
  let probe ~conditions ~spec ~backend params =
    let circuit, out = T.build ~conditions params in
    let sys = Mna.sys ~backend circuit in
    let layout = Mna.sys_layout sys in
    let freqs = Gtb.freqs_of conditions in
    match Dcop.solve ~sys circuit with
    | Error _ -> []
    | Ok op ->
        let session = T.session ~conditions ~solver:backend params in
        let rng = Rng.create 1 in
        let real = Mna.sys_real sys in
        let rhs =
          Mna.assemble_dc_into real circuit layout ~x:op.Dcop.x
            ~source_scale:1. ~gmin:1e-12
        in
        let cs = Mna.sys_complex sys in
        let crhs =
          Mna.assemble_ac_into cs circuit layout ~ops:(fun name ->
              List.assoc name op.Dcop.mos_ops)
        in
        let omega = 2. *. Float.pi *. 1e6 in
        let biases = mosfet_biases circuit op.Dcop.x in
        let eval_all () =
          List.iter
            (fun (model, w, l, vgs, vds, vbs) ->
              ignore
                (Sys.opaque_identity (Mosfet.eval model ~w ~l ~vgs ~vds ~vbs)))
            biases
        in
        let solve_us = per_call_us ~batch:200 (fun () -> real.Linsys.solve rhs) in
        let dense, csr =
          match backend with Linsys.Dense -> (solve_us, 0.) | Csr -> (0., solve_us)
        in
        [
          ( "circuits.evaluate_us",
            per_call_us ~batch:10 (fun () -> T.evaluate ~conditions params) );
          ( "circuits.session_sample_us",
            per_call_us ~batch:20 (fun () ->
                T.evaluate_in_session session ~spec ~rng:(Rng.split rng)) );
          ("spice.dcop_us", per_call_us ~batch:20 (fun () -> Dcop.solve ~sys circuit));
          ("spice.newton_iters", float_of_int op.Dcop.iterations);
          ( "spice.ac_us",
            per_call_us ~batch:10 (fun () ->
                Ac.transfer_by_name ~sys circuit op ~out ~freqs) );
          ("spice.ac_points", float_of_int (Array.length freqs));
          ( "spice.assemble_dc_us",
            per_call_us ~batch:200 (fun () ->
                Mna.assemble_dc_into real circuit layout ~x:op.Dcop.x
                  ~source_scale:1. ~gmin:1e-12) );
          ( "spice.mosfet_eval_ns",
            per_call_us ~batch:2000 eval_all
            /. float_of_int (Stdlib.max 1 (List.length biases))
            *. 1e3 );
          ("numeric.dense_solve_us", dense);
          ("numeric.csr_solve_us", csr);
          ( "numeric.ac_factor_us",
            per_call_us ~batch:100 (fun () -> cs.Linsys.factor ~omega crhs) );
          ( "numeric.csr_compile_ms",
            match backend with
            | Linsys.Dense -> 0.
            | Csr ->
                per_call_us ~batch:5 (fun () -> Mna.sys ~backend:Csr circuit)
                /. 1e3 );
          ( "process.overrides_us",
            per_call_us ~batch:200 (fun () -> Variation.overrides spec rng circuit)
          );
        ]

  (* Median of each probe metric over several designs. *)
  let layers r ~conditions ~spec ~backend designs =
    let rows = List.map (probe ~conditions ~spec ~backend) designs in
    check r (List.for_all (fun row -> row <> []) rows) "probe: a DC solve failed";
    match List.filter (fun row -> row <> []) rows with
    | [] -> ()
    | first :: _ as rows ->
        List.iter
          (fun (name, _) ->
            metric r name (median (List.map (List.assoc name) rows)))
          first

  let proof ~conditions ~spec ~(ps : Config.prescreen) ~dc_only params =
    let circuit, out = T.build ~conditions params in
    Corner_lint.analyse_circuit ~k_sigma:ps.Config.k_sigma ~spec
      ~window:
        {
          Corner_lint.min_gain_db = ps.Config.min_gain_db;
          min_pm_deg = ps.Config.min_pm_deg;
        }
      ~freqs:(if dc_only then [||] else Gtb.freqs_of conditions)
      ~out circuit
end

module Ota_stack = Stack (Ota)
module Miller_stack = Stack (Miller)

(* Table write/read and behavioural-model queries on one flow's models. *)
let table_layers r (f : Flow.t) ~dir =
  metric r "table.save_ms"
    (per_call_us ~batch:1 (fun () -> Flow.save_tables f ~dir) /. 1e3);
  metric r "table.load_ms"
    (per_call_us ~batch:1 (fun () -> Flow.load_models ~dir ~control:"3E") /. 1e3);
  let points = Perf_model.points f.Flow.perf_model in
  let n = Array.length points in
  let i = ref 0 in
  let next () =
    let p = points.(!i mod n) in
    incr i;
    p
  in
  metric r "behavioural.lookup_us"
    (per_call_us ~batch:200 (fun () ->
         let p = next () in
         Perf_model.lookup f.Flow.perf_model ~gain_db:p.Perf_model.gain_db
           ~pm_deg:p.Perf_model.pm_deg));
  metric r "behavioural.propose_us"
    (per_call_us ~batch:200 (fun () ->
         let p = next () in
         Macromodel.propose f.Flow.macromodel ~gain_db:p.Perf_model.gain_db
           ~pm_deg:(p.Perf_model.pm_deg -. 1.)))

(* ---------- the table server ---------- *)

type server = { domain : int Domain.t; addr : Addr.t }

let request addr json =
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.request c json)

let frame_ok frame = Json.member "ok" frame = Some (Json.Bool true)

(* A server (Snapshot.load with lint, bind) in a domain of its own, up
   when its first health answer is ok. *)
let start_server r ~addr ~tables =
  (* Some true: serving; Some false: returned without serving *)
  let started = ref None and m = Mutex.create () and c = Condition.create () in
  let settle v =
    Mutex.protect m (fun () ->
        if !started = None then started := Some v;
        Condition.signal c)
  in
  let cfg = Server.default ~addr ~tables_dir:tables in
  let domain =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> settle false)
          (fun () ->
            Server.run ~signals:false ~on_ready:(fun () -> settle true) cfg))
  in
  let serving =
    Mutex.protect m (fun () ->
        while !started = None do
          Condition.wait c m
        done;
        !started = Some true)
  in
  if not serving then
    failwith
      (Printf.sprintf "server refused to start (exit %d)" (Domain.join domain));
  let health = request addr (Json.Obj [ ("op", Json.String "health") ]) in
  check r (frame_ok health) "health frame is not ok";
  { domain; addr }

let stop_server r s =
  let frame = request s.addr (Json.Obj [ ("op", Json.String "shutdown") ]) in
  check r (frame_ok frame) "shutdown frame is not ok";
  check r (Domain.join s.domain = 0) "server exited non-zero"

(* The default loadgen mix (ping 1 / lookup 6 / design 3) with arguments in
   the inner 80 % of the model ranges, as Loadgen draws them. *)
let query_stream ~seed (snap : Snapshot.t) n =
  let rng = Random.State.make [| seed |] in
  let inside (lo, hi) = lo +. ((hi -. lo) *. (0.1 +. Random.State.float rng 0.8)) in
  let gains = Perf_model.gain_range snap.Snapshot.perf in
  let pms = Perf_model.pm_range snap.Snapshot.perf in
  List.init n (fun _ ->
      match Random.State.int rng 10 with
      | 0 -> Wire.Ping
      | k when k <= 6 -> Wire.Lookup { gain_db = inside gains; pm_deg = inside pms }
      | _ -> Wire.Design { min_gain_db = inside gains; min_pm_deg = inside pms })

(* The table server's layers, in flow-ota's traced run: a server on the
   flow's tables, driven closed-loop by Loadgen for [serve_slices]
   half-second slices, then the server's request path timed in process on
   the same kind of query stream.  The round trip is no end-to-end metric:
   on a shared machine it follows the machine's state under every
   statistic tried (perfbench/README.md, Noise). *)
let serve_slices = 6

let serve_layers r ~seed ~work ~tables =
  let addr = Addr.Unix_sock (Filename.concat work "serve.sock") in
  let server = start_server r ~addr ~tables in
  let snap =
    match Snapshot.load ~generation:1 ~dir:tables ~control:"3E" with
    | Ok s -> s
    | Error (msg, _) -> failwith ("flow tables do not load: " ^ msg)
  in
  let counter name = Metrics.value (Metrics.counter name) in
  let shed0 = counter "serve.shed" and timeouts0 = counter "serve.timeouts" in
  let failed0 = counter "serve.failed" in
  let latencies = ref [] and p50s = ref [] in
  (* the server's own request latency, admission to answer *)
  let server_latency = Metrics.histogram "serve.latency_us" and server_p50s = ref [] in
  for i = 1 to serve_slices do
    Histogram.reset server_latency;
    match Loadgen.run ~seed:(seed + i) ~addr ~clients:1 ~duration_s:0.5 () with
    | Error msg ->
        r.attempted <- r.attempted + 1;
        r.failed <- r.failed + 1;
        diag r "last_failure" (Json.String msg)
    | Ok (lg : Loadgen.result) ->
        r.attempted <- r.attempted + lg.Loadgen.sent;
        r.failed <- r.failed + (lg.Loadgen.sent - lg.Loadgen.ok);
        check r (lg.Loadgen.ok = lg.Loadgen.sent)
          (Printf.sprintf "%d of %d frames not ok"
             (lg.Loadgen.sent - lg.Loadgen.ok) lg.Loadgen.sent);
        if lg.Loadgen.sent > 0 then begin
          p50s := Histogram.quantile_of_sorted lg.Loadgen.latency_us 0.5 :: !p50s;
          server_p50s := Histogram.quantile server_latency 0.5 :: !server_p50s;
          latencies := Array.to_list lg.Loadgen.latency_us @ !latencies
        end
  done;
  (* correctness: a sample of frames matches the in-process answer byte
     for byte *)
  let c = Client.connect addr in
  List.iter
    (fun q ->
      Client.send_line c (Json.to_string (Wire.request_to_json (Wire.Query q)));
      let line = Client.recv_line c in
      match (Handle.query snap q, line) with
      | Ok (op, fields), Some line ->
          check r (line ^ "\n" = Wire.ok_frame ~op fields) ("frame differs: " ^ line)
      | Error e, _ -> check r false ("in-process query failed: " ^ e.Wire.message)
      | Ok _, None -> check r false "connection closed")
    (query_stream ~seed snap 200);
  Client.close c;
  stop_server r server;
  let rtt = median !p50s in
  metric r "serve.rtt_p50_us" rtt;
  metric r "serve.server_p50_us" (median !server_p50s);
  metric r "serve.rtt_p99_us" (quantile !latencies 0.99);
  metric r "serve.shed" (float_of_int (counter "serve.shed" - shed0));
  metric r "serve.timeouts" (float_of_int (counter "serve.timeouts" - timeouts0));
  metric r "serve.failed" (float_of_int (counter "serve.failed" - failed0));
  let qs = Array.of_list (query_stream ~seed snap 2000) in
  let lines =
    Array.map (fun q -> Json.to_string (Wire.request_to_json (Wire.Query q))) qs
  in
  let answers = Array.map (Handle.query snap) qs in
  let n = Array.length qs in
  let each f =
    per_call_us ~batch:1 (fun () ->
        for i = 0 to n - 1 do
          f i
        done)
    /. float_of_int n
  in
  let parse = each (fun i -> ignore (Sys.opaque_identity (Wire.parse lines.(i)))) in
  let handle = each (fun i -> ignore (Sys.opaque_identity (Handle.query snap qs.(i)))) in
  let render =
    each (fun i ->
        match answers.(i) with
        | Ok (op, fields) -> ignore (Sys.opaque_identity (Wire.ok_frame ~op fields))
        | Error _ -> ())
  in
  metric r "serve.parse_us" parse;
  metric r "serve.handle_us" handle;
  metric r "serve.render_us" render;
  metric r "serve.io_us" (rtt -. parse -. handle -. render)

(* ---------- flow-ota ---------- *)

(* The flow inputs.  flow-ota takes its GA seed from this table ([--seed]
   modulo its length); every entry is a seed whose fast flow analyses nine
   front points, like the default seed 2008, so every seed costs the same
   work (1393-1396 sims).  Each carries the MD5 of the two tables its flow
   writes.  The prescreened flow the traced run times for the analyse layer
   always runs seed 2008: its proof cost swings 2.2-5.4 s across GA seeds,
   and some seeds starve the variation model. *)
type fixture = { seed : int; sims : int; perf_md5 : string; var_md5 : string }

let flow_fixtures =
  [|
    { seed = 2008; sims = 1395; perf_md5 = "1e23a427b084154497b57784c9f7855c"; var_md5 = "31984de8a55031857a544d3479aafca9" };
    { seed = 2013; sims = 1396; perf_md5 = "5b43e31bf6f6dcefff0461ca94c658f6"; var_md5 = "eed27a3ca3de86614088e58521c246f0" };
    { seed = 2029; sims = 1394; perf_md5 = "80eeaf1bf5d8af60f89a48d270b48678"; var_md5 = "615999cab6578e0f83b2fa2196592018" };
    { seed = 2031; sims = 1393; perf_md5 = "7f116409ea51909b6b754327795e160c"; var_md5 = "77219b39a6691b56235d80130f9b8696" };
    { seed = 2036; sims = 1393; perf_md5 = "7f726f540de31e7d0a9914c219017638"; var_md5 = "fff6f803987d921218bc1bf3d8c15c2f" };
    { seed = 2096; sims = 1394; perf_md5 = "286b34b604e6a8824291730235dadfea"; var_md5 = "edb9c75eca81887e1128ab331ce19218" };
    { seed = 2097; sims = 1396; perf_md5 = "e1acf7bd7df30bd00602d825ccebf845"; var_md5 = "e9ff24947bb437e09b3671fb7d8d2f29" };
    { seed = 2100; sims = 1396; perf_md5 = "e8cd2760014a248dd5fb891f09781607"; var_md5 = "019857e5bd2f6c3f6f9346ff7f59ba3d" };
  |]

let prescreen_fixture =
  {
    seed = 2008;
    sims = 1315;
    (* the same perf table as flow-ota's seed 2008: the prescreen only
       touches the variation step *)
    perf_md5 = "1e23a427b084154497b57784c9f7855c";
    var_md5 = "df3f0b359f9758a2a3bd46d0150bc246";
  }

(* analysed, provably fail, provably pass, undecided *)
let prescreen_verdicts = (9, 2, 0, 7)

(* The wide window of bench's prescreen A/B: parts of the front provably
   cannot reach 60 dB over the 0.5-sigma box. *)
let wide_window =
  {
    Config.enabled = true;
    k_sigma = 0.5;
    min_gain_db = 60.;
    min_pm_deg = 0.;
    pass_budget_frac = 1.;
  }

let flow_fixture seed =
  let n = Array.length flow_fixtures in
  flow_fixtures.(((seed mod n) + n) mod n)

let flow_config ~prescreen seed =
  {
    Config.fast_scale with
    Config.seed;
    prescreen = (if prescreen then wide_window else Config.no_prescreen);
  }

let table_digests dir =
  List.map
    (fun name -> Digest.to_hex (Digest.file (Filename.concat dir name)))
    [ "perf_model.tbl"; "variation_model.tbl" ]

let verdicts (f : Flow.t) =
  Option.map
    (fun (p : Flow.prescreen_counts) ->
      (p.Flow.analysed, p.Flow.fail_skipped, p.Flow.provably_passed, p.Flow.undecided))
    f.Flow.prescreen

(* One unit: the flow plus the table writing `yieldlab flow --out-dir`
   does, checked against the fixture. *)
let flow_unit r ~prescreen (fx : fixture) ~dir =
  let cfg = flow_config ~prescreen fx.seed in
  match
    attempt r (fun () ->
        measured (fun () ->
            let f = Flow.run cfg in
            ignore (Flow.save_tables f ~dir);
            f))
  with
  | None -> None
  | Some (f, cost) ->
      let sims = Flow.total_sims f.Flow.counts in
      check r (sims = fx.sims)
        (Printf.sprintf "seed %d: %d sims, expected %d" fx.seed sims fx.sims);
      (match table_digests dir with
      | [ perf; var ] ->
          check r (perf = fx.perf_md5)
            (Printf.sprintf "seed %d: perf_model.tbl md5 %s, expected %s" fx.seed
               perf fx.perf_md5);
          check r (var = fx.var_md5)
            (Printf.sprintf "seed %d: variation_model.tbl md5 %s, expected %s"
               fx.seed var fx.var_md5)
      | _ -> ());
      check r
        (verdicts f = if prescreen then Some prescreen_verdicts else None)
        "prescreen verdicts differ from the recorded ones";
      Some (f, cost)

let fault_hits () =
  List.fold_left
    (fun acc (name, v) ->
      if
        String.starts_with ~prefix:"fault." name
        && String.ends_with ~suffix:".hits" name
      then acc + v
      else acc)
    0 (Metrics.snapshot ()).Metrics.counters

(* ga.self_ms: the WBGA stage replayed with a timed objective, minus the
   time spent inside it. *)
let ga_self r (cfg : Config.t) =
  let conditions = cfg.Config.conditions in
  let in_eval = ref 0. in
  let evaluate params =
    let t0 = now () in
    let v =
      match Ota_stack.T.evaluate ~conditions (Ota.params_of_array params) with
      | Some p when Gtb.feasible conditions p -> Some (Gtb.objectives p)
      | Some _ | None -> None
    in
    in_eval := !in_eval +. (now () -. t0);
    v
  in
  let _, cost =
    measured (fun () ->
        Wbga.run ~config:cfg.Config.ga ~param_ranges:Ota.param_ranges
          ~objectives:
            [|
              { Wbga.name = "gain"; maximise = true };
              { Wbga.name = "pm"; maximise = true };
            |]
          ~rng:(Rng.create cfg.Config.seed) ~evaluate ())
  in
  metric r "ga.self_ms" ((cost.secs -. !in_eval) *. 1e3)

let span_p50_ms name =
  let s = Histogram.summarize (Metrics.histogram ("span." ^ name)) in
  if s.Histogram.count = 0 then 0. else s.Histogram.p50 *. 1e3

(* The analyse layer: one prescreened flow of the fixture seed, checked
   like a unit, then the corner proof itself, timed on the first two front
   points that flow analyses. *)
let analyse_layers r ~work =
  let fx = prescreen_fixture in
  let dir = Filename.concat work "prescreen" in
  match flow_unit r ~prescreen:true fx ~dir with
  | None -> ()
  | Some (f, cost) ->
      metric r "analyse.prescreen_flow_ms" (cost.secs *. 1e3);
      metric r "analyse.prescreen_sims" (float_of_int (Flow.total_sims f.Flow.counts));
      Option.iter
        (fun (p : Flow.prescreen_counts) ->
          metric r "analyse.fail" (float_of_int p.Flow.fail_skipped);
          metric r "analyse.pass" (float_of_int p.Flow.provably_passed);
          metric r "analyse.undecided" (float_of_int p.Flow.undecided))
        f.Flow.prescreen;
      let cfg = flow_config ~prescreen:true fx.seed in
      let stride = Stdlib.max 1 cfg.Config.front_stride in
      let front = f.Flow.front_points in
      let proofs ~dc_only =
        List.filter_map
          (fun i ->
            attempt r (fun () ->
                measured (fun () ->
                    Ota_stack.proof ~conditions:cfg.Config.conditions
                      ~spec:cfg.Config.variation ~ps:wide_window ~dc_only
                      (Ota.params_of_array front.(i).Perf_model.params))))
          (List.filter (fun i -> i < Array.length front) [ 0; stride ])
      in
      let full = proofs ~dc_only:false and dc = proofs ~dc_only:true in
      let ms l = median (List.map (fun (_, c) -> c.secs *. 1e3) l) in
      metric r "analyse.proof_ms" (ms full);
      metric r "analyse.proof_dc_ms" (ms dc);
      metric r "analyse.slices"
        (median
           (List.map
              (fun ((rep : Corner_lint.report), _) ->
                float_of_int (List.length rep.Corner_lint.slices))
              full))

let flow_workload r ~seed ~seconds ~trace ~work =
  let fx = flow_fixture seed in
  diag r "flow_seed" (Json.Int fx.seed);
  let dir = Filename.concat work "tables" in
  let unit () = flow_unit r ~prescreen:false fx ~dir in
  (* set-up: the process's cold first flow *)
  (match unit () with
  | Some _ -> r.setup <- [ now () -. started_s ]
  | None -> ());
  if not trace then begin
    let costs = measure_for r ~seconds (fun _ -> Option.map snd (unit ())) in
    check r (costs <> []) "no flow completed";
    report_units r (List.map (fun c -> c.secs *. 1e6) costs);
    metric r "alloc_kw" (median (List.map (fun c -> c.words /. 1e3) costs))
  end
  else begin
    Obs.reset ();
    let last = ref None and faults = ref 0 in
    let split = halves () in
    let wbga = ref [] and mc = ref [] in
    let costs =
      measure_for r ~min_units:2 ~seconds (fun i ->
          let hits0 = fault_hits () in
          let on = i mod 2 = 0 in
          let res, cost = measured (fun () -> with_stream ~work on unit) in
          faults := fault_hits () - hits0;
          Option.map
            (fun (f, c) ->
              last := Some f;
              add_half split ~on cost.secs;
              wbga := f.Flow.timings.Flow.optimisation_s :: !wbga;
              mc := f.Flow.timings.Flow.mc_s :: !mc;
              c)
            res)
    in
    metric r "obs.trace_overhead_pct" (overhead_pct split);
    metric r "core.wbga_ms" (median !wbga *. 1e3);
    metric r "core.mc_ms" (median !mc *. 1e3);
    metric r "core.front_ms" (span_p50_ms "flow.front-resim");
    metric r "core.tables_ms" (span_p50_ms "flow.tables");
    metric r "core.preflight_ms" (span_p50_ms "flow.preflight");
    metric r "resilience.fault_checks" (float_of_int !faults);
    gc_metrics r costs;
    match !last with
    | None -> check r false "no flow completed"
    | Some f ->
        let cfg = flow_config ~prescreen:false fx.seed in
        metric r "core.sims" (float_of_int (Flow.total_sims f.Flow.counts));
        metric r "ga.evaluations" (float_of_int f.Flow.wbga.Wbga.evaluations);
        metric r "ga.infeasible" (float_of_int f.Flow.wbga.Wbga.failures);
        ga_self r cfg;
        let front = f.Flow.front_points in
        let n = Array.length front in
        Ota_stack.layers r ~conditions:cfg.Config.conditions
          ~spec:cfg.Config.variation ~backend:Linsys.Dense
          (List.map
             (fun i -> Ota.params_of_array front.(i).Perf_model.params)
             [ 0; n / 2; n - 1 ]);
        table_layers r f ~dir;
        serve_layers r ~seed ~work ~tables:dir;
        analyse_layers r ~work
  end

(* ---------- mc-miller-csr ---------- *)

let miller_conditions = { Gtb.default_conditions with Gtb.min_unity_gain_hz = 5e6 }

let mc_designs = 12

let mc_block = 200

(* samples of each design replayed on a dense session *)
let mc_dense_replay = 10

type mc = {
  designs : Miller.params array;
  nominal : Gtb.perf array;
  streams : Rng.t array;  (** each design's live sample stream *)
  origins : Rng.t array;  (** the streams as set-up left them, for replays *)
  sample : int -> Rng.t -> Gtb.perf option;  (** through the csr session *)
  dense : int -> Rng.t -> Gtb.perf option;  (** through a dense session *)
}

(* Set-up: draw [mc_designs] seeded feasible designs whose pilot samples
   all converge, and build one csr session each.  A fresh functor
   instance per call starts with an empty pattern cache, so every set-up
   pays csr ordering and symbolic compile. *)
let mc_setup ~seed =
  let module T = Gtb.Make (Miller) in
  let conditions = miller_conditions in
  let spec = Variation.default_spec in
  let rng = Rng.create seed in
  let draw () =
    Miller.params_of_array
      (Array.map
         (fun (g : Genome.range) ->
           let u = Rng.float rng in
           match g.Genome.scale with
           | Genome.Linear -> g.Genome.lo +. (u *. (g.Genome.hi -. g.Genome.lo))
           | Log -> g.Genome.lo *. ((g.Genome.hi /. g.Genome.lo) ** u))
         Miller.param_ranges)
  in
  (* a fixed number of candidates, so the set-up's cost hardly depends on
     the seed; the first feasible ones whose pilot samples all converge
     are kept *)
  let candidates =
    List.init 64 (fun _ ->
        let p = draw () in
        match T.evaluate ~conditions p with
        | Some perf when Gtb.feasible conditions perf -> Some (p, perf)
        | Some _ | None -> None)
    |> List.filter_map Fun.id
  in
  let rec pick acc = function
    | _ when List.length acc = mc_designs -> Array.of_list (List.rev acc)
    | [] -> failwith "mc set-up: too few usable Miller designs"
    | (p, perf) :: rest ->
        let session = T.session ~conditions ~solver:Linsys.Csr p in
        let pilot = Rng.split rng in
        let converges =
          List.for_all
            (fun _ ->
              T.evaluate_in_session session ~spec ~rng:(Rng.split pilot) <> None)
            (List.init 16 Fun.id)
        in
        pick (if converges then (p, perf, session) :: acc else acc) rest
  in
  let chosen = pick [] candidates in
  let sessions = Array.map (fun (_, _, s) -> s) chosen in
  let designs = Array.map (fun (p, _, _) -> p) chosen in
  let origins = Array.map (fun _ -> Rng.split rng) chosen in
  let dense =
    lazy
      (Array.map (fun p -> T.session ~conditions ~solver:Linsys.Dense p) designs)
  in
  {
    designs;
    nominal = Array.map (fun (_, perf, _) -> perf) chosen;
    streams = Array.map Rng.copy origins;
    origins;
    sample = (fun d rng -> T.evaluate_in_session sessions.(d) ~spec ~rng);
    dense =
      (fun d rng -> T.evaluate_in_session (Lazy.force dense).(d) ~spec ~rng);
  }

(* yield window of a design: within 0.3 dB gain and 1 degree PM of its
   nominal *)
let passes (nominal : Gtb.perf) (p : Gtb.perf) =
  p.Gtb.gain_db >= nominal.Gtb.gain_db -. 0.3
  && p.Gtb.phase_margin_deg >= nominal.Gtb.phase_margin_deg -. 1.

let same_perf a b =
  match (a, b) with
  | None, None -> true
  | Some (a : Gtb.perf), Some (b : Gtb.perf) -> compare a b = 0
  | Some _, None | None, Some _ -> false

let close_perf a b =
  let rel x y = Float.abs (x -. y) /. Float.max 1e-9 (Float.abs x) in
  match (a, b) with
  | None, None -> true
  | Some (a : Gtb.perf), Some (b : Gtb.perf) ->
      rel a.Gtb.gain_db b.Gtb.gain_db <= 1e-6
      && rel a.Gtb.phase_margin_deg b.Gtb.phase_margin_deg <= 1e-6
  | Some _, None | None, Some _ -> false

let mc_workload r ~seed ~seconds ~trace ~work =
  let setup () =
    let st, cost = measured (fun () -> mc_setup ~seed) in
    r.setup <- cost.secs :: r.setup;
    st
  in
  (* set-up, fifteen times; the last one's sessions are measured *)
  for _ = 1 to 14 do
    ignore (setup ())
  done;
  let st = setup () in
  let first = Array.make mc_designs [||] in
  (* one unit: a block of [mc_block] samples of one design *)
  let block i =
    let d = i mod mc_designs in
    let results, cost =
      measured (fun () ->
          Array.init mc_block (fun _ -> st.sample d (Rng.split st.streams.(d))))
    in
    r.attempted <- r.attempted + mc_block;
    Array.iter (fun v -> if v = None then r.failed <- r.failed + 1) results;
    if i < mc_designs then first.(d) <- results;
    cost
  in
  let split = halves () in
  let costs =
    measure_for r ~min_units:mc_designs ~seconds (fun i ->
        let on = trace && i mod 2 = 0 in
        let cost = with_stream ~work on (fun () -> block i) in
        add_half split ~on cost.secs;
        Some cost)
  in
  (* correctness: each design's first block replays bit-identically from a
     fresh stream (so its yield estimate does too), and its first samples
     agree with a dense session to 1e-6 *)
  let yields =
    Array.mapi
      (fun d recorded ->
        let stream = Rng.copy st.origins.(d) in
        let pass = ref 0 in
        Array.iteri
          (fun j v ->
            let rng = Rng.split stream in
            let replay = st.sample d (Rng.copy rng) in
            check r (same_perf v replay)
              (Printf.sprintf "design %d sample %d: csr replay differs" d j);
            if j < mc_dense_replay then
              check r
                (close_perf v (st.dense d rng))
                (Printf.sprintf "design %d sample %d: dense differs from csr" d j);
            match v with Some p when passes st.nominal.(d) p -> incr pass | _ -> ())
          recorded;
        float_of_int !pass /. float_of_int (Stdlib.max 1 (Array.length recorded)))
      first
  in
  diag r "first_block_yields"
    (Json.List (Array.to_list (Array.map (fun y -> Json.Float y) yields)));
  let per_sample f = List.map (fun c -> f c /. float_of_int mc_block) costs in
  if not trace then begin
    (* the designs differ in cost, so the fastest block of each design,
       averaged over the designs *)
    let us = per_sample (fun c -> c.secs *. 1e6) in
    let fastest = Array.make mc_designs Float.infinity in
    List.iteri
      (fun i x ->
        let d = i mod mc_designs in
        fastest.(d) <- Float.min fastest.(d) x)
      us;
    unit_spread r us;
    metric r "unit_us" (mean (Array.to_list fastest));
    (* a mean, not a median: the designs allocate different amounts, and
       the median block would jump between them from seed to seed *)
    metric r "alloc_kw" (mean (per_sample (fun c -> c.words /. 1e3)))
  end
  else begin
    metric r "obs.trace_overhead_pct" (overhead_pct split);
    Miller_stack.layers r ~conditions:miller_conditions
      ~spec:Variation.default_spec ~backend:Linsys.Csr
      (Array.to_list (Array.sub st.designs 0 3));
    gc_metrics r
      (List.map
         (fun c -> { c with words = c.words /. float_of_int mc_block })
         costs)
  end

(* ---------- driver ---------- *)

let workloads = [ "flow-ota"; "mc-miller-csr" ]

let env_json ~workload ~seed ~seconds ~trace =
  Json.Obj
    [
      ("workload", Json.String workload);
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("ocaml", Json.String Sys.ocaml_version);
      ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
      ( "ocamlrunparam",
        match Sys.getenv_opt "OCAMLRUNPARAM" with
        | Some v -> Json.String v
        | None -> Json.Null );
    ]

let result_json r ~env =
  let metrics = List.rev_map (fun (name, v) -> (name, Json.Float v)) r.metrics in
  let calib = if r.calib = [] then Float.nan else median r.calib in
  Json.Obj
    [
      ("correct", Json.Bool (r.mismatches = [] && r.attempted > r.failed));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ("metrics", Json.Obj metrics);
      ("setup_samples", Json.List (List.rev_map (fun s -> Json.Float s) r.setup));
      ("mismatches", Json.List (List.rev_map (fun s -> Json.String s) r.mismatches));
      ("diagnostics", Json.Obj (("env.calib_ms", Json.Float calib) :: List.rev r.diag));
      ("env", env);
    ]

let usage () =
  prerr_endline
    "usage: main.exe (run|setup|fixtures) [--workload W] [--seed N] [--seconds \
     S] [--trace 0|1] --work DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let cmd, opts = match args with c :: rest -> (c, rest) | [] -> usage () in
  let rec parse acc = function
    | [] -> acc
    | key :: v :: rest when String.starts_with ~prefix:"--" key ->
        parse ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] opts in
  let opt name = List.assoc_opt name opts in
  let work = match opt "work" with Some w -> w | None -> usage () in
  Yield_resilience.Atomic_io.mkdir_p work;
  let workload = Option.value (opt "workload") ~default:"flow-ota" in
  if not (List.mem workload workloads) then begin
    Printf.eprintf "unknown workload %s (one of %s)\n" workload
      (String.concat ", " workloads);
    exit 2
  end;
  let seed = Option.fold ~none:0 ~some:int_of_string (opt "seed") in
  let seconds = Option.fold ~none:10. ~some:float_of_string (opt "seconds") in
  let trace = opt "trace" = Some "1" in
  let r =
    {
      attempted = 0;
      failed = 0;
      mismatches = [];
      setup = [];
      calib = [];
      last_calib = started_s;
      metrics = [];
      diag = [];
    }
  in
  match cmd with
  | "run" ->
      (match workload with
      | "flow-ota" -> flow_workload r ~seed ~seconds ~trace ~work
      | _ -> mc_workload r ~seed ~seconds ~trace ~work);
      print_endline
        (Json.to_string (result_json r ~env:(env_json ~workload ~seed ~seconds ~trace)))
  | "setup" ->
      ignore
        (flow_unit r ~prescreen:false (flow_fixture seed)
           ~dir:(Filename.concat work "tables"));
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("setup_s", Json.Float (now () -. started_s));
                ("correct", Json.Bool (r.mismatches = [] && r.failed = 0));
              ]))
  | "fixtures" ->
      let record ~prescreen seed =
        let cfg = flow_config ~prescreen seed in
        let f = Flow.run cfg in
        let dir = Filename.concat work "fixtures" in
        ignore (Flow.save_tables f ~dir);
        match table_digests dir with
        | [ perf; var ] ->
            Printf.printf
              "{ seed = %d; sims = %d; perf_md5 = %S; var_md5 = %S };%s\n%!" seed
              (Flow.total_sims f.Flow.counts) perf var
              (match verdicts f with
              | Some (a, fl, p, u) -> Printf.sprintf " (* verdicts %d %d %d %d *)" a fl p u
              | None -> "")
        | _ -> ()
      in
      Array.iter (fun fx -> record ~prescreen:false fx.seed) flow_fixtures;
      record ~prescreen:true prescreen_fixture.seed
  | _ -> usage ()
