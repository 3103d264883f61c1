module Ota = Yield_circuits.Ota
module Gtb = Yield_circuits.Testbench
module Wbga = Yield_ga.Wbga
module Rng = Yield_stats.Rng
module Montecarlo = Yield_process.Montecarlo
module Perf_model = Yield_behavioural.Perf_model
module Var_model = Yield_behavioural.Var_model
module Macromodel = Yield_behavioural.Macromodel
module Yield_target = Yield_behavioural.Yield_target
module Metrics = Yield_obs.Metrics
module Span = Yield_obs.Span
module Obs = Yield_obs.Obs
module Json = Yield_obs.Json
module Fault = Yield_resilience.Fault
module Pool = Yield_exec.Pool
module Codec = Yield_resilience.Codec
module Checkpoint = Yield_resilience.Checkpoint
module Diagnostic = Yield_analyse.Diagnostic
module Config_lint = Yield_analyse.Config_lint
module Corner_lint = Yield_analyse.Corner_lint
module Netlist_lint = Yield_analyse.Netlist_lint
module Table_lint = Yield_analyse.Table_lint
module Va_lint = Yield_analyse.Va_lint

(* the flow's public accounting is derived from the metrics registry: the
   same counters every sink exports ("wbga.evaluations" is the one [Wbga]
   bumps, "mc.samples.attempted" the one [Montecarlo] bumps) *)
let c_front_sims = Metrics.counter "flow.front_sims"

let c_wbga_evaluations = Metrics.counter "wbga.evaluations"

let c_mc_attempted = Metrics.counter "mc.samples.attempted"

let c_degraded = Metrics.counter "flow.points.degraded"

let c_preflight_findings = Metrics.counter "preflight.findings"

let c_preflight_errors = Metrics.counter "preflight.errors"

(* the corner-proof Monte Carlo pre-screen (Config.prescreen) *)
let c_ps_points = Metrics.counter "flow.prescreen.points"

let c_ps_skipped = Metrics.counter "flow.prescreen.skipped"

let c_ps_shrunk = Metrics.counter "flow.prescreen.shrunk"

let c_ps_passed = Metrics.counter "flow.prescreen.passed"

let c_ps_undecided = Metrics.counter "flow.prescreen.undecided"

exception Refused of Diagnostic.t list

exception Unfinished of string

let () =
  Printexc.register_printer (function
    | Refused diags ->
        Some ("Flow.Refused:\n" ^ Diagnostic.list_to_text diags)
    | _ -> None)

(* crash points for the checkpoint/resume tests: each fires just after the
   corresponding stage persisted its state, simulating a kill there *)
let fp_wbga_gen = Fault.point "flow.wbga.generation"

let fp_mc_point = Fault.point "flow.mc.point"

type counts = {
  optimisation_sims : int;
  front_sims : int;
  mc_sims : int;
}

let total_sims c = c.optimisation_sims + c.front_sims + c.mc_sims

type prescreen_counts = {
  analysed : int;
  fail_skipped : int;
  pass_shrunk : int;
  provably_passed : int;
  undecided : int;
}

type timings = { optimisation_s : float; mc_s : float; total_s : float }

type t = {
  config : Config.t;
  wbga : Wbga.result;
  front_points : Perf_model.point array;
  var_points : Var_model.point array;
  perf_model : Perf_model.t;
  var_model : Var_model.t;
  macromodel : Macromodel.t;
  counts : counts;
  prescreen : prescreen_counts option;
  timings : timings;
}

let nop _ = ()

type verification = {
  nominal : Gtb.perf;
  yield : Montecarlo.yield_estimate;
  gains : float array;
  pms : float array;
}

let design_for_spec t spec = Yield_target.plan t.macromodel spec

let save_tables t ~dir =
  Yield_resilience.Atomic_io.mkdir_p dir;
  let perf_path = Filename.concat dir "perf_model.tbl" in
  let var_path = Filename.concat dir "variation_model.tbl" in
  Yield_table.Tbl_io.write ~path:perf_path (Perf_model.to_table t.perf_model);
  Yield_table.Tbl_io.write ~path:var_path (Var_model.to_table t.var_model);
  [ perf_path; var_path ]

let load_models ~dir ~control =
  let perf_table =
    (* strict load: the gain column feeds spline knots, so the same
       monotonicity the preflight linter checks (T003) is enforced here *)
    match
      Yield_table.Tbl_io.read_strict
        ~path:(Filename.concat dir "perf_model.tbl")
        ~axes:[ "gain" ]
    with
    | Ok t -> t
    | Error e -> failwith (Yield_table.Tbl_io.read_error_to_string e)
  in
  let perf = Perf_model.of_table ~control perf_table in
  let var =
    Var_model.of_table ~control
      (Yield_table.Tbl_io.read
         ~path:(Filename.concat dir "variation_model.tbl"))
  in
  (perf, var)

(* preflight for the table-consuming entry points (design / export-va):
   everything [load_models] would die on, plus what it would silently
   accept and then answer badly.  The perf table is linted with the same
   strict gain axis [load_models] enforces; the variation table with no
   axis constraint, matching the tolerant [Tbl_io.read] path.  [spec]
   additionally runs the T007 coverage check, and the Verilog-A module
   that [export-va] would emit with this control is linted structurally. *)
let lint_models ?spec ~dir ~control () =
  let perf_path = Filename.concat dir "perf_model.tbl" in
  let var_path = Filename.concat dir "variation_model.tbl" in
  let column_range table_path column =
    match Yield_table.Tbl_io.read_result ~path:table_path with
    | Error _ -> None (* already a T001 from check_file *)
    | Ok t -> begin
        match Yield_table.Tbl_io.column_opt t column with
        | Some xs when Array.length xs > 0 ->
            Some
              ( Array.fold_left Float.min xs.(0) xs,
                Array.fold_left Float.max xs.(0) xs )
        | Some _ | None -> None
      end
  in
  let coverage =
    match spec with
    | None -> []
    | Some (s : Yield_target.spec) ->
        let against table_path column query =
          match column_range table_path column with
          | None -> []
          | Some (lo, hi) ->
              Table_lint.spec_coverage ~file:table_path ~control ~axis:column
                ~lo ~hi ~query ()
        in
        against perf_path "gain" s.Yield_target.min_gain_db
        @ against var_path "pm" s.Yield_target.min_pm_deg
  in
  Table_lint.check_file ~axes:[ "gain" ] ~control perf_path
  @ Table_lint.check_file ~axes:[] var_path
  @ coverage
  @ Va_lint.check (Yield_behavioural.Verilog_a.module_ast ~control ())

(* ---------- checkpoint codecs for the flow's stage payloads ---------- *)

let perf_point_to_json (p : Perf_model.point) =
  Json.Obj
    [
      ("gain_db", Codec.float_ p.Perf_model.gain_db);
      ("pm_deg", Codec.float_ p.Perf_model.pm_deg);
      ("params", Codec.float_array p.Perf_model.params);
      ("rout", Codec.float_ p.Perf_model.rout);
      ("unity_gain_hz", Codec.float_ p.Perf_model.unity_gain_hz);
    ]

let perf_point_of_json j =
  {
    Perf_model.gain_db = Codec.to_float (Codec.member "gain_db" j);
    pm_deg = Codec.to_float (Codec.member "pm_deg" j);
    params = Codec.to_float_array (Codec.member "params" j);
    rout = Codec.to_float (Codec.member "rout" j);
    unity_gain_hz = Codec.to_float (Codec.member "unity_gain_hz" j);
  }

let var_point_to_json (p : Var_model.point) =
  Json.Obj
    [
      ("gain_db", Codec.float_ p.Var_model.gain_db);
      ("pm_deg", Codec.float_ p.Var_model.pm_deg);
      ("dgain_pct", Codec.float_ p.Var_model.dgain_pct);
      ("dpm_pct", Codec.float_ p.Var_model.dpm_pct);
      ("mc_samples", Codec.int_ p.Var_model.mc_samples);
    ]

let var_point_of_json j =
  {
    Var_model.gain_db = Codec.to_float (Codec.member "gain_db" j);
    pm_deg = Codec.to_float (Codec.member "pm_deg" j);
    dgain_pct = Codec.to_float (Codec.member "dgain_pct" j);
    dpm_pct = Codec.to_float (Codec.member "dpm_pct" j);
    mc_samples = Codec.to_int (Codec.member "mc_samples" j);
  }

type mc_state = {
  next_i : int;  (** next front index the variation loop will visit *)
  done_points : Var_model.point list;  (** chronological *)
  mc_rng : Rng.state;
}

let mc_state_to_json s =
  Json.Obj
    [
      ("next_i", Codec.int_ s.next_i);
      ("points", Codec.list var_point_to_json s.done_points);
      ("rng", Codec.rng_state s.mc_rng);
    ]

let mc_state_of_json j =
  {
    next_i = Codec.to_int (Codec.member "next_i" j);
    done_points = Codec.to_list var_point_of_json (Codec.member "points" j);
    mc_rng = Codec.to_rng_state (Codec.member "rng" j);
  }

(* a decode failure on any stage payload just means the stage is recomputed *)
let decode_opt of_json j =
  match of_json j with v -> Some v | exception Codec.Decode _ -> None

let load_stage ckpt ~key decode =
  match ckpt with
  | None -> None
  | Some c -> Option.bind (Checkpoint.load c ~key) decode

let store_stage ckpt ~key to_json v =
  match ckpt with
  | None -> ()
  | Some c -> Checkpoint.store c ~key (to_json v)

(* a finished stage: restored from the checkpoint when it holds one under
   [key], else computed and stored there *)
let checkpointed ckpt ~log ~key ~name ~decode ~encode compute =
  match load_stage ckpt ~key decode with
  | Some v ->
      log (Printf.sprintf "flow: %s restored from checkpoint" name);
      v
  | None ->
      let v = compute () in
      store_stage ckpt ~key encode v;
      v

module type S = sig
  type params

  val optimise :
    ?pool:Pool.t -> ?checkpoint:(Wbga.snapshot -> unit) ->
    ?resume:Wbga.snapshot -> config:Yield_ga.Ga.config ->
    conditions:Gtb.conditions -> rng:Rng.t -> unit -> Wbga.result

  val run :
    ?log:(string -> unit) -> ?preflight:bool -> ?checkpoint_dir:string ->
    ?resume:bool -> Config.t -> t

  val check_config :
    ?checkpoint_dir:string -> ?resume:bool -> Config.t -> Diagnostic.t list

  val verify_design :
    t -> ?samples:int -> ?seed:int -> spec:Yield_target.spec -> params ->
    (verification, string) result
end

module Make (A : Yield_circuits.Amplifier.S) = struct
  type params = A.params

  module T = Gtb.Make (A)

  let optimise ?pool ?checkpoint ?resume ~config ~conditions ~rng () =
    let evaluate params =
      match T.evaluate ~conditions (A.params_of_array params) with
      | Some perf when Gtb.feasible conditions perf -> Some (Gtb.objectives perf)
      | Some _ | None -> None
    in
    Wbga.run ~config ?pool ?checkpoint ?resume ~param_ranges:A.param_ranges
      ~objectives:
        [|
          { Wbga.name = "gain"; maximise = true };
          { Wbga.name = "pm"; maximise = true };
        |]
      ~rng ~evaluate ()

  (* one design's Monte Carlo batch, batch-first: one testbench
     instantiation, each sample only drawing its models into a buffer
     (bit-identical to rebuilding under the dense default).  The compiled
     session is shared by the pool's domains: each sample borrows its own
     buffer and workspaces from it. *)
  let sample_design ~pool ~samples ~rng (config : Config.t) params =
    let session =
      T.session ~conditions:config.Config.conditions
        ~solver:config.Config.solver params
    in
    Montecarlo.run ~pool ~samples ~rng (fun rng ->
        T.evaluate_in_session session ~spec:config.Config.variation ~rng)

  let fingerprint config = Config.fingerprint ~amplifier:A.name config

  (* the preflight's config findings, which [lint config] reports too:
     cross-field checks and a checkpoint dry-run under this amplifier's
     fingerprint *)
  let check_config ?checkpoint_dir ?(resume = false) (config : Config.t) =
    Config_lint.check ?checkpoint_dir ~resume
      {
        Config_lint.population = config.Config.ga.Yield_ga.Ga.population_size;
        generations = config.Config.ga.Yield_ga.Ga.generations;
        mc_samples = config.Config.mc_samples;
        front_stride = config.Config.front_stride;
        control = config.Config.control;
        seed = config.Config.seed;
        jobs = config.Config.jobs;
        fingerprint = fingerprint config;
      }

  (* the preflight stage: everything that can doom the run and is knowable
     before the first simulation — the config findings and a netlist lint
     of the amplifier's own testbench at its default sizing *)
  let preflight_check ?checkpoint_dir ~resume ~log (config : Config.t) =
    Span.with_ ~name:"flow.preflight" (fun () ->
        let circuit, _out =
          T.build ~conditions:config.Config.conditions A.default_params
        in
        let config_diags = check_config ?checkpoint_dir ~resume config in
        let netlist_diags =
          Netlist_lint.check
            ~tech:config.Config.conditions.Gtb.tech
            ~pairs:A.symmetric_pairs circuit
        in
        let diags = Diagnostic.sort (config_diags @ netlist_diags) in
        Metrics.add c_preflight_findings (List.length diags);
        let errors = Diagnostic.count Diagnostic.Error diags in
        let warnings = Diagnostic.count Diagnostic.Warning diags in
        Metrics.add c_preflight_errors errors;
        List.iter
          (fun d -> log ("flow: preflight " ^ Diagnostic.to_text d))
          diags;
        if errors > 0 then raise (Refused diags)
        else if warnings > 0 then
          log
            (Printf.sprintf "flow: preflight passed with %d warning(s)"
               warnings))

  let run ?(log = nop) ?(preflight = true) ?checkpoint_dir ?(resume = false)
      (config : Config.t) =
    (* idempotent: a stream/sampler armed by CLI flags stays in charge *)
    Obs.ensure_telemetry
      ?trace_stream:config.Config.telemetry.Config.trace_stream
      ?span_sample:config.Config.telemetry.Config.span_sample
      ?snapshot_every_s:config.Config.telemetry.Config.snapshot_every_s ();
    if preflight then preflight_check ?checkpoint_dir ~resume ~log config;
    let conditions = config.Config.conditions in
    let ckpt =
      match checkpoint_dir with
      | None -> None
      | Some dir ->
          let c = Checkpoint.create ~dir in
          (match Checkpoint.check_fingerprint c (fingerprint config) with
          | Ok `Fresh -> ()
          | Ok `Resumable when resume -> log ("flow: resuming from " ^ dir)
          | Ok `Resumable ->
              (* same configuration but a fresh run was asked for: drop the
                 stale stage state *)
              List.iter
                (fun key -> Checkpoint.remove c ~key)
                [ "wbga.state"; "wbga.result"; "front"; "mc.state" ]
          | Error msg ->
              (* the preflight's C005, when the preflight was skipped *)
              let d = Config_lint.checkpoint_mismatch ~dir msg in
              log ("flow: " ^ Diagnostic.to_text d);
              raise (Refused [ d ]));
          Some c
    in
    (* counter baselines: the per-run counts are registry deltas *)
    let evaluations0 = Metrics.value c_wbga_evaluations in
    let front_sims0 = Metrics.value c_front_sims in
    let mc_attempted0 = Metrics.value c_mc_attempted in
    let ps_points0 = Metrics.value c_ps_points in
    let ps_skipped0 = Metrics.value c_ps_skipped in
    let ps_shrunk0 = Metrics.value c_ps_shrunk in
    let ps_passed0 = Metrics.value c_ps_passed in
    let ps_undecided0 = Metrics.value c_ps_undecided in
    let optimisation_s = ref 0. in
    let mc_s = ref 0. in
    (* one pool serves every parallel stage of the run (WBGA evaluation,
       front re-simulation, MC batches), so the domain start-up cost is
       paid once; jobs = 1 spawns nothing and every map is the serial loop *)
    let pool = Pool.create ~jobs:config.Config.jobs () in
    if Pool.jobs pool > 1 then
      log (Printf.sprintf "flow: domain pool with %d jobs" (Pool.jobs pool));
    let build () =
      (* --- step 1-2: netlist generation + WBGA optimisation --- *)
      log
        (Printf.sprintf "flow: WBGA %d x %d"
           config.Config.ga.Yield_ga.Ga.population_size
           config.Config.ga.Yield_ga.Ga.generations);
      let wbga, wbga_s =
        Span.timed ~name:"flow.wbga" (fun () ->
            checkpointed ckpt ~log ~key:"wbga.result" ~name:"WBGA stage"
              ~decode:(fun j -> Result.to_option (Wbga.result_of_json j))
              ~encode:Wbga.result_to_json
              (fun () ->
                let resume =
                  load_stage ckpt ~key:"wbga.state" (fun j ->
                      Result.to_option (Wbga.snapshot_of_json j))
                in
                (match resume with
                | Some s ->
                    log
                      (Printf.sprintf "flow: WBGA resuming at generation %d"
                         s.Wbga.ga.Yield_ga.Ga.next_generation)
                | None -> ());
                let checkpoint =
                  Option.map
                    (fun c s ->
                      Checkpoint.store c ~key:"wbga.state"
                        (Wbga.snapshot_to_json s);
                      Fault.raise_if fp_wbga_gen)
                    ckpt
                in
                optimise ~pool ?checkpoint ?resume ~config:config.Config.ga
                  ~conditions ~rng:(Rng.create config.Config.seed) ()))
      in
      optimisation_s := wbga_s;
      log
        (Printf.sprintf "flow: %d evaluations, %d infeasible, front %d"
           wbga.Wbga.evaluations wbga.Wbga.failures
           (Array.length wbga.Wbga.front));
      if Array.length wbga.Wbga.front < 2 then
        raise (Unfinished "the optimisation produced no usable Pareto front");
      (* --- step 3: performance model: nominal re-simulation of the front
         for the auxiliary columns (rout, fu) --- *)
      let front_points =
        Span.with_ ~name:"flow.front-resim" (fun () ->
            checkpointed ckpt ~log ~key:"front" ~name:"front re-simulation"
              ~decode:(decode_opt (Codec.to_array perf_point_of_json))
              ~encode:(Codec.array perf_point_to_json)
              (fun () ->
                let entries = wbga.Wbga.front in
                let n = Array.length entries in
                Metrics.add c_front_sims n;
                (* nominal re-simulations are independent, so they fan out
                   over the pool; the filter below keeps front order *)
                let perfs =
                  Pool.map pool ~n (fun i ->
                      T.evaluate ~conditions
                        (A.params_of_array entries.(i).Wbga.params))
                in
                Array.to_list (Array.map2 (fun e p -> (e, p)) entries perfs)
                |> List.filter_map (fun ((e : Wbga.entry), perf) ->
                       match perf with
                       | Some perf ->
                           Some
                             {
                               Perf_model.gain_db = perf.Gtb.gain_db;
                               pm_deg = perf.Gtb.phase_margin_deg;
                               params = e.Wbga.params;
                               rout = perf.Gtb.rout_est;
                               unity_gain_hz = perf.Gtb.unity_gain_hz;
                             }
                       | None -> None)
                |> Array.of_list))
      in
      (* --- step 4: variation model: Monte Carlo on (a stride of) the
         front --- *)
      let var_points, var_mc_s =
        Span.timed ~name:"flow.mc" (fun () ->
            let stride = Stdlib.max 1 config.Config.front_stride in
            let mc_rng = Rng.create (config.Config.seed + 1) in
            let start_i, var_points =
              match load_stage ckpt ~key:"mc.state" (decode_opt mc_state_of_json) with
              | Some s ->
                  log
                    (Printf.sprintf
                       "flow: variation model resuming at front point %d/%d"
                       s.next_i
                       (Array.length front_points));
                  Rng.restore mc_rng s.mc_rng;
                  (s.next_i, ref (List.rev s.done_points))
              | None -> (0, ref [])
            in
            let ps = config.Config.prescreen in
            let enclosure_text (r : Corner_lint.report) =
              let itv name = function
                | None -> name ^ " unbounded"
                | Some (iv : Yield_analyse.Interval.t) ->
                    Printf.sprintf "%s [%.2f, %.2f]" name iv.lo iv.hi
              in
              itv "gain" r.Corner_lint.enclosure.Corner_lint.gain_db
              ^ ", "
              ^ itv "pm" r.Corner_lint.enclosure.Corner_lint.pm_deg
            in
            (* decide this point's Monte Carlo budget: the full
               [mc_samples], a shrunk budget (provably inside the spec
               window over the truncated box), or none at all (provably
               outside).  Deterministic — no RNG — so a resumed run makes
               the same decisions for the points it re-visits. *)
            let prescreen_budget i (p : Perf_model.point) params =
              if not ps.Config.enabled then Some config.Config.mc_samples
              else begin
                Metrics.incr c_ps_points;
                let circuit, out = T.build ~conditions params in
                let report =
                  Corner_lint.analyse_circuit ~k_sigma:ps.Config.k_sigma
                    ~spec:config.Config.variation
                    ~window:
                      {
                        Corner_lint.min_gain_db = ps.Config.min_gain_db;
                        min_pm_deg = ps.Config.min_pm_deg;
                      }
                    ~freqs:(Gtb.freqs_of conditions) ~out circuit
                in
                match report.Corner_lint.verdict with
                | Corner_lint.Provably_fail ->
                    Metrics.incr c_ps_skipped;
                    log
                      (Printf.sprintf
                         "flow: prescreen front point %d (gain %.1f dB): \
                          provably outside the spec window over the \
                          %.2f-sigma box (%s) — yield 0, %d MC samples \
                          skipped"
                         i p.Perf_model.gain_db ps.Config.k_sigma
                         (enclosure_text report) config.Config.mc_samples);
                    None
                | Corner_lint.Provably_pass ->
                    Metrics.incr c_ps_passed;
                    let budget =
                      Stdlib.max Config_lint.min_valid_mc_samples
                        (int_of_float
                           (ceil
                              (ps.Config.pass_budget_frac
                              *. float_of_int config.Config.mc_samples)))
                    in
                    let budget = Stdlib.min budget config.Config.mc_samples in
                    if budget < config.Config.mc_samples then begin
                      Metrics.incr c_ps_shrunk;
                      log
                        (Printf.sprintf
                           "flow: prescreen front point %d (gain %.1f dB): \
                            provably inside the spec window (%s) — MC budget \
                            %d -> %d"
                           i p.Perf_model.gain_db (enclosure_text report)
                           config.Config.mc_samples budget)
                    end;
                    Some budget
                | Corner_lint.Undecided ->
                    Metrics.incr c_ps_undecided;
                    Some config.Config.mc_samples
              end
            in
            (* the variation point of front point [i] from its batch of
               [samples] *)
            let mc_point i (p : Perf_model.point) params samples =
              let outcome =
                sample_design ~pool ~samples ~rng:mc_rng config params
              in
              let results = outcome.Montecarlo.results in
              if Array.length results >= Config_lint.min_valid_mc_samples
              then begin
                let gains = Array.map (fun r -> r.Gtb.gain_db) results in
                let pms = Array.map (fun r -> r.Gtb.phase_margin_deg) results in
                var_points :=
                  {
                    Var_model.gain_db = p.Perf_model.gain_db;
                    pm_deg = p.Perf_model.pm_deg;
                    dgain_pct =
                      Montecarlo.spread_pct gains ~nominal:p.Perf_model.gain_db;
                    dpm_pct =
                      Montecarlo.spread_pct pms ~nominal:p.Perf_model.pm_deg;
                    mc_samples = Array.length results;
                  }
                  :: !var_points
              end
              else begin
                (* too few valid samples to estimate a spread: drop the
                   point and keep going rather than poisoning the model or
                   crashing the flow *)
                Metrics.incr c_degraded;
                log
                  (Printf.sprintf
                     "flow: degraded front point %d (gain %.1f dB): %d/%d \
                      MC samples failed, %d valid — variation point skipped"
                     i p.Perf_model.gain_db outcome.Montecarlo.failed
                     outcome.Montecarlo.attempted (Array.length results))
              end
            in
            for i = start_i to Array.length front_points - 1 do
              if i mod stride = 0 then begin
                let p = front_points.(i) in
                let params = A.params_of_array p.Perf_model.params in
                (match prescreen_budget i p params with
                | Some samples -> mc_point i p params samples
                | None ->
                    (* provably outside spec (logged above): no MC and no
                       variation point *)
                    ());
                store_stage ckpt ~key:"mc.state" mc_state_to_json
                  {
                    next_i = i + 1;
                    done_points = List.rev !var_points;
                    mc_rng = Rng.save mc_rng;
                  };
                Fault.raise_if fp_mc_point
              end
            done;
            Array.of_list (List.rev !var_points))
      in
      mc_s := var_mc_s;
      if config.Config.prescreen.Config.enabled then
        log
          (Printf.sprintf
             "flow: prescreen analysed %d front points: %d provably-fail (MC \
              skipped), %d provably-pass (%d budget-shrunk), %d undecided"
             (Metrics.value c_ps_points - ps_points0)
             (Metrics.value c_ps_skipped - ps_skipped0)
             (Metrics.value c_ps_passed - ps_passed0)
             (Metrics.value c_ps_shrunk - ps_shrunk0)
             (Metrics.value c_ps_undecided - ps_undecided0));
      log
        (Printf.sprintf "flow: variation model from %d points x %d MC samples"
           (Array.length var_points) config.Config.mc_samples);
      if Array.length var_points < 2 then
        raise
          (Unfinished
             (Printf.sprintf
                "the variation model starved: only %d of %d analysed front \
                 points kept enough valid MC samples (see the \
                 flow.points.degraded counter)"
                (Array.length var_points)
                (1 + ((Array.length front_points - 1)
                      / Stdlib.max 1 config.Config.front_stride))));
      (* --- step 5: table models --- *)
      let perf_model, var_model, macromodel =
        Span.with_ ~name:"flow.tables" (fun () ->
            let perf_model =
              Perf_model.create ~control:config.Config.control front_points
            in
            let var_model =
              Var_model.create ~control:config.Config.control var_points
            in
            let macromodel = Macromodel.create perf_model var_model in
            (perf_model, var_model, macromodel))
      in
      (wbga, front_points, var_points, perf_model, var_model, macromodel)
    in
    let (wbga, front_points, var_points, perf_model, var_model, macromodel),
        total_s =
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () -> Span.timed ~name:"flow.run" build)
    in
    {
      config;
      wbga;
      front_points;
      var_points;
      perf_model;
      var_model;
      macromodel;
      counts =
        {
          optimisation_sims = Metrics.value c_wbga_evaluations - evaluations0;
          front_sims = Metrics.value c_front_sims - front_sims0;
          mc_sims = Metrics.value c_mc_attempted - mc_attempted0;
        };
      prescreen =
        (if not config.Config.prescreen.Config.enabled then None
         else
           Some
             {
               analysed = Metrics.value c_ps_points - ps_points0;
               fail_skipped = Metrics.value c_ps_skipped - ps_skipped0;
               pass_shrunk = Metrics.value c_ps_shrunk - ps_shrunk0;
               provably_passed = Metrics.value c_ps_passed - ps_passed0;
               undecided = Metrics.value c_ps_undecided - ps_undecided0;
             });
      timings =
        { optimisation_s = !optimisation_s; mc_s = !mc_s; total_s };
    }

  let verify_design t ?(samples = 500) ?(seed = 77) ~spec params =
    let conditions = t.config.Config.conditions in
    match T.evaluate ~conditions params with
    | None -> Error "verify_design: nominal evaluation failed"
    | Some nominal ->
        let outcome =
          (* a transient pool: verification runs outside Flow.run, so the
             run's own pool is already shut down *)
          Pool.with_pool ~jobs:t.config.Config.jobs (fun pool ->
              sample_design ~pool ~samples ~rng:(Rng.create seed) t.config
                params)
        in
        let results = outcome.Montecarlo.results in
        if Array.length results = 0 then
          Error
            (Printf.sprintf
               "verify_design: all samples failed (%d attempted, %d failed)"
               outcome.Montecarlo.attempted outcome.Montecarlo.failed)
        else begin
          let gains = Array.map (fun r -> r.Gtb.gain_db) results in
          let pms = Array.map (fun r -> r.Gtb.phase_margin_deg) results in
          let ok r =
            Yield_target.meets spec ~gain_db:r.Gtb.gain_db
              ~pm_deg:r.Gtb.phase_margin_deg
          in
          Ok { nominal; yield = Montecarlo.yield_of ok results; gains; pms }
        end
end

module Ota_flow = Make (Ota)

module Miller_flow = Make (Yield_circuits.Miller)

let run = Ota_flow.run

let verify_design = Ota_flow.verify_design
