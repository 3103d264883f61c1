(* The yieldlab command-line interface.

   Subcommands cover the flow stage by stage:
     ota-eval   evaluate one OTA sizing at transistor level
     corners    the same design across process corners
     mc         Monte Carlo analysis of one design against a spec
     optimize   the WBGA multi-objective optimisation alone
     flow       the full model-generation flow; writes the .tbl tables
     design     yield-targeted design query against saved tables
     filter     the Section 5 filter design from an OTA description
     netlist    parse a SPICE-like netlist, solve DC, print the bias point
     lint       preflight static analysis of netlists, .tbl models, configs
     serve      long-lived table server (deadlines, shedding, hot reload)
     loadgen    closed-loop bench / smoke probe against a running server *)

module Ota = Yield_circuits.Ota
module Tb = Yield_circuits.Ota_testbench
module Filter = Yield_circuits.Filter
module Config = Yield_core.Config
module Flow = Yield_core.Flow
module Report = Yield_core.Report
module Perf_model = Yield_behavioural.Perf_model
module Macromodel = Yield_behavioural.Macromodel
module Yield_target = Yield_behavioural.Yield_target
module Variation = Yield_process.Variation
module Corner = Yield_process.Corner
module Montecarlo = Yield_process.Montecarlo
module Tech = Yield_process.Tech
module Wbga = Yield_ga.Wbga
module Ga = Yield_ga.Ga
module Rng = Yield_stats.Rng
module Dcop = Yield_spice.Dcop
module Netlist = Yield_spice.Netlist

module Obs = Yield_obs.Obs
module Json = Yield_obs.Json
module Fault = Yield_resilience.Fault
module Atomic_io = Yield_resilience.Atomic_io
module Diagnostic = Yield_analyse.Diagnostic
module Deck = Yield_analyse.Deck
module Netlist_lint = Yield_analyse.Netlist_lint
module Table_lint = Yield_analyse.Table_lint
module Config_lint = Yield_analyse.Config_lint
module Ac_tran_lint = Yield_analyse.Ac_tran_lint
module Corner_lint = Yield_analyse.Corner_lint
module Va_lint = Yield_analyse.Va_lint
module Baseline = Yield_analyse.Baseline
module Sarif = Yield_analyse.Sarif

open Cmdliner

(* ---------- options and settings of every subcommand ---------- *)

type obs_opts = { verbose : bool; fault_spec : string option }

let obs_term =
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"print spans live to stderr and a metrics summary at exit")
  in
  let fault_spec =
    Arg.(
      value
      & opt (some string) None
      & info [ "fault-spec" ] ~docv:"SPEC"
          ~doc:
            "arm deterministic fault injection, e.g. \
             'dcop.solve:rate=0.2,seed=42;tbl.write:at=1'.  Points: \
             dcop.solve, dcop.newton, dcop.gmin, ac.solve, mc.sample, \
             tbl.write, flow.wbga.generation, flow.mc.point, serve.handler, \
             serve.accept, serve.reload.  Schedules: rate= (with optional \
             seed=), count=, every=, at=")
  in
  Term.(
    const (fun verbose fault_spec -> { verbose; fault_spec })
    $ verbose $ fault_spec)

(* the flags of the settings a command of [scope] takes (every subcommand
   the global ones, flow and lint config all), as the raw text each was
   given, keyed by setting name *)
let settings_term scope =
  List.fold_left
    (fun acc (s : Config.setting) ->
      let flag_info =
        Arg.info s.Config.flags ?docv:s.Config.docv
          ~doc:
            (Printf.sprintf "%s.  Also read from $(b,%s)" s.Config.doc
               s.Config.var)
      in
      let given =
        match s.Config.docv with
        | None ->
            Term.(
              const (fun on -> if on then Some "1" else None)
              $ Arg.(value & flag flag_info))
        | Some _ -> Arg.(value & opt (some string) None flag_info)
      in
      Term.(
        const (fun acc -> function
          | None -> acc
          | Some raw -> (s.Config.name, raw) :: acc)
        $ acc $ given))
    (Term.const []) (Config.taken_by scope)

(* the refusal of malformed settings (C006-C008) or counts (C001): print
   every diagnostic, exit 2 *)
let refuse_settings diags =
  List.iter
    (fun d -> Printf.eprintf "yieldlab: %s\n" (Diagnostic.to_text d))
    diags;
  2

(* a non-positive count flag is refused before any simulation, with the
   preflight's own C001 naming the flag *)
let with_positive counts run =
  match
    List.concat_map
      (fun (flag, n) -> Config_lint.positive ~subject:flag n)
      counts
  with
  | [] -> run ()
  | diags -> refuse_settings diags

(* run a subcommand over its resolved settings, with telemetry armed and
   the stream stopped on the way out (also when the command raises) *)
let with_obs scope opts flags run =
  Obs.set_verbose opts.verbose;
  match Config.resolve ~scope ~flags (Config.base ()) with
  | Error diags -> run (Error diags)
  | Ok config ->
      (match opts.fault_spec with
      | None -> ()
      | Some spec -> begin
          (* static validation first: arming registers the named points, so a
             typo would otherwise silently create a schedule that never fires *)
          let diags = Config_lint.check_fault_spec spec in
          List.iter
            (fun d -> Printf.eprintf "yieldlab: %s\n" (Diagnostic.to_text d))
            diags;
          if Diagnostic.count Diagnostic.Error diags > 0 then exit 2;
          match Fault.arm_spec spec with
          | Ok () ->
              List.iter
                (fun (name, mode) ->
                  Printf.eprintf "yieldlab: fault armed: %s %s\n" name
                    (Fault.mode_to_string mode))
                (Fault.armed ())
          | Error msg ->
              Printf.eprintf "yieldlab: bad --fault-spec: %s\n" msg;
              exit 2
        end);
      (* after the fault spec: opening the stream truncates its file, which
         a refused spec must leave as it was *)
      let tel = config.Config.telemetry in
      (try
         Obs.ensure_telemetry ?trace_stream:tel.Config.trace_stream
           ?span_sample:tel.Config.span_sample
           ?snapshot_every_s:tel.Config.snapshot_every_s ()
       with Sys_error msg ->
         Printf.eprintf "yieldlab: cannot open the trace stream: %s\n" msg;
         exit 1);
      let stop () =
        if opts.verbose then prerr_string (Obs.summary ());
        (* a stream write that failed stopped the stream, not the run: the
           run's results are written, and the failure is its exit code *)
        try Obs.stop_stream ()
        with Sys_error msg ->
          Printf.eprintf "yieldlab: cannot write the trace stream: %s\n" msg;
          exit 1
      in
      Fun.protect ~finally:stop (fun () ->
          try run (Ok config)
          with Fault.Injected what ->
            (* an armed crash point fired: behave like a kill, but exit cleanly
               enough that the stream above still closes *)
            Printf.eprintf "yieldlab: simulated crash (fault injected): %s\n" what;
            10)

(* a subcommand over the resolved settings of [scope] *)
let settings_cmd scope info term =
  Cmd.v info
    Term.(const (with_obs scope) $ obs_term $ settings_term scope $ term)

let obs_cmd ?(scope = Config.Global) info term =
  settings_cmd scope info
    Term.(
      const (fun body -> function
        | Ok config -> body config
        | Error diags -> refuse_settings diags)
      $ term)

(* ---------- shared arguments ---------- *)

let um = 1e-6

(* One topology's design flags, one per dimension in micrometres, with
   its defaults.  A value that is not finite or lies outside the
   dimension's Table 1 range is refused (C008, one line naming the flag
   and its range), never clamped and never left to the device model to
   reject: the term answers the design or the refusals. *)
let design_term (type p)
    (module A : Yield_circuits.Amplifier.S with type params = p) defaults =
  let dim i (r : Yield_ga.Genome.range) =
    (* the range's bounds in micrometres: * 1e6 is exact on Table 1's *)
    let lo = r.Yield_ga.Genome.lo *. 1e6 and hi = r.Yield_ga.Genome.hi *. 1e6 in
    let name = r.Yield_ga.Genome.name in
    let flag = "--" ^ name in
    let given =
      Arg.(
        value & opt float defaults.(i)
        & info [ name ] ~docv:"UM"
            ~doc:(Printf.sprintf "%s in micrometres, within [%g, %g]" name lo hi))
    in
    let check v =
      if lo <= v && v <= hi then Ok (v *. um)
      else
        Error
          (Config_lint.malformed_setting ~setting:flag ~value:(Printf.sprintf "%g" v)
             ~expected:(Printf.sprintf "a dimension in [%g, %g] um (Table 1)" lo hi))
    in
    Term.(const check $ given)
  in
  let dims =
    Array.fold_right
      (fun t acc -> Term.(const List.cons $ t $ acc))
      (Array.mapi dim A.param_ranges) (Term.const [])
  in
  Term.(
    const (fun dims ->
        match List.filter_map (function Error d -> Some d | Ok _ -> None) dims with
        | [] ->
            Ok
              (A.params_of_array
                 (Array.of_list (List.filter_map Result.to_option dims)))
        | refused -> Error refused)
    $ dims)

let param_term = design_term (module Ota) [| 30.; 1.; 30.; 1.; 30.; 1.; 30.; 1. |]

(* [run] of a design its flags gave, or their refusal, exit 2 *)
let with_design design run =
  match design with Ok params -> run params | Error diags -> refuse_settings diags

(* a gain or phase-margin spec given that no yield can be read against
   (not finite, or not above zero) is refused before any simulation or
   table read: one C008 line per flag *)
let spec_refusals ~min_gain ~min_pm =
  List.filter_map
    (fun (flag, v, what, unit) ->
      match v with
      | Some v when not (Float.is_finite v && v > 0.) ->
          Some
            (Config_lint.malformed_setting ~setting:flag ~value:(Printf.sprintf "%g" v)
               ~expected:(Printf.sprintf "a finite %s in (0, inf) %s" what unit))
      | Some _ | None -> None)
    [ ("--min-gain", min_gain, "gain", "dB"); ("--min-pm", min_pm, "phase margin", "deg") ]

let seed_term =
  Arg.(value & opt int 2008 & info [ "seed" ] ~docv:"N" ~doc:"random seed")

let samples_term default =
  Arg.(
    value & opt int default
    & info [ "samples" ] ~docv:"N" ~doc:"Monte Carlo sample count")

let tables_dir_term =
  Arg.(
    value & opt string "."
    & info [ "tables" ] ~docv:"DIR" ~doc:"directory holding the .tbl models")

let print_perf (p : Tb.perf) =
  Printf.printf "gain          %8.2f dB\n" p.Tb.gain_db;
  Printf.printf "phase margin  %8.2f deg\n" p.Tb.phase_margin_deg;
  Printf.printf "unity gain    %8s Hz\n" (Report.si p.Tb.unity_gain_hz);
  Printf.printf "f3db          %8s Hz\n" (Report.si p.Tb.f3db_hz);
  Printf.printf "rout (est)    %8s Ohm\n" (Report.si p.Tb.rout_est)

(* ---------- ota-eval ---------- *)

let ota_eval params show_netlist =
  (match Tb.evaluate params with
  | Some perf -> print_perf perf
  | None -> prerr_endline "evaluation failed (DC non-convergence?)");
  if show_netlist then begin
    let circuit, _ = Tb.build params in
    print_newline ();
    print_string (Netlist.to_string circuit)
  end;
  0

let ota_eval_cmd =
  let netlist_flag =
    Arg.(value & flag & info [ "netlist" ] ~doc:"also print the testbench netlist")
  in
  obs_cmd
    (Cmd.info "ota-eval" ~doc:"evaluate one OTA sizing at transistor level")
    Term.(
      const (fun p n _ -> with_design p (fun p -> ota_eval p n))
      $ param_term $ netlist_flag)

(* ---------- miller-eval ---------- *)

let miller_eval params =
  let module Mtb = Yield_circuits.Miller_testbench in
  let module Gtb = Yield_circuits.Testbench in
  match Mtb.evaluate ~conditions:Mtb.conditions params with
  | Some p ->
      Printf.printf "gain          %8.2f dB\n" p.Gtb.gain_db;
      Printf.printf "phase margin  %8.2f deg\n" p.Gtb.phase_margin_deg;
      Printf.printf "unity gain    %8s Hz\n" (Report.si p.Gtb.unity_gain_hz);
      Printf.printf "rout (est)    %8s Ohm\n" (Report.si p.Gtb.rout_est);
      0
  | None ->
      prerr_endline "evaluation failed (DC non-convergence?)";
      1

let miller_param_term =
  design_term (module Yield_circuits.Miller) [| 20.; 1.; 60.; 0.5; 30.; 1.; 30.; 1. |]

let miller_eval_cmd =
  obs_cmd
    (Cmd.info "miller-eval"
       ~doc:"evaluate a two-stage Miller OTA sizing at transistor level")
    Term.(const (fun p _ -> with_design p miller_eval) $ miller_param_term)

(* ---------- corners ---------- *)

let corners params =
  List.iter
    (fun corner ->
      let tech = Corner.apply Variation.default_spec corner Tech.c35 in
      let conditions = { Tb.default_conditions with Tb.tech } in
      match Tb.evaluate ~conditions params with
      | Some p ->
          Printf.printf "%-3s gain %6.2f dB  pm %6.2f deg  fu %8s Hz\n"
            (Corner.to_string corner)
            p.Tb.gain_db p.Tb.phase_margin_deg
            (Report.si p.Tb.unity_gain_hz)
      | None ->
          Printf.printf "%-3s evaluation failed\n" (Corner.to_string corner))
    Corner.all;
  0

let corners_cmd =
  obs_cmd
    (Cmd.info "corners" ~doc:"evaluate a design across process corners")
    Term.(const (fun p _ -> with_design p corners) $ param_term)

(* ---------- mc ---------- *)

let mc params samples seed min_gain min_pm (config : Config.t) =
  match spec_refusals ~min_gain ~min_pm with
  | _ :: _ as refused -> refuse_settings refused
  | [] ->
  with_positive [ ("--samples", samples) ] @@ fun () ->
  let rng = Rng.create seed in
  let session = Tb.session params in
  let outcome =
    Yield_exec.Pool.with_pool ~jobs:config.jobs (fun pool ->
        Montecarlo.run ~pool ~samples ~rng (fun r ->
            Tb.evaluate_in_session session ~spec:Variation.default_spec ~rng:r))
  in
  let results = outcome.Montecarlo.results in
  if Array.length results = 0 then begin
    Printf.eprintf "%s\n"
      (Montecarlo.yield_outcome_to_string
         (Montecarlo.No_valid_samples
            {
              attempted = outcome.Montecarlo.attempted;
              failed = outcome.Montecarlo.failed;
            }));
    1
  end
  else begin
    let gains = Array.map (fun p -> p.Tb.gain_db) results in
    let pms = Array.map (fun p -> p.Tb.phase_margin_deg) results in
    let stats name xs =
      let s = Yield_stats.Summary.of_array xs in
      (* one sample has no spread: say so rather than print a nan *)
      let sd =
        if Yield_stats.Summary.count s < 2 then "n/a"
        else Printf.sprintf "%.4f" (Yield_stats.Summary.stddev s)
      in
      Printf.printf "%-6s mean %8.3f  sd %7s  min %8.3f  max %8.3f\n" name
        (Yield_stats.Summary.mean s) sd
        (Yield_stats.Summary.min_value s)
        (Yield_stats.Summary.max_value s)
    in
    Printf.printf "%d successful samples (%d attempted, %d failed)\n"
      (Array.length results) outcome.Montecarlo.attempted
      outcome.Montecarlo.failed;
    stats "gain" gains;
    stats "pm" pms;
    (match (min_gain, min_pm) with
    | Some g, Some p ->
        let spec = { Yield_target.min_gain_db = g; min_pm_deg = p } in
        let outcome_yield =
          Montecarlo.yield_of_counted
            (fun r ->
              Yield_target.meets spec ~gain_db:r.Tb.gain_db
                ~pm_deg:r.Tb.phase_margin_deg)
            outcome
        in
        Printf.printf "yield vs (gain>%.1f, pm>%.1f): %s\n" g p
          (Montecarlo.yield_outcome_to_string outcome_yield)
    | _ -> ());
    0
  end

let mc_cmd =
  let gain =
    Arg.(value & opt (some float) None & info [ "min-gain" ] ~docv:"DB" ~doc:"gain spec")
  in
  let pm =
    Arg.(value & opt (some float) None & info [ "min-pm" ] ~docv:"DEG" ~doc:"phase-margin spec")
  in
  obs_cmd
    (Cmd.info "mc" ~doc:"Monte Carlo analysis of one design")
    Term.(
      const (fun p n seed g pm config ->
          with_design p (fun p -> mc p n seed g pm config))
      $ param_term $ samples_term 200 $ seed_term $ gain $ pm)

(* ---------- optimize ---------- *)

let optimize population generations seed out (settings : Config.t) =
  with_positive
    [ ("--population", population); ("--generations", generations) ]
  @@ fun () ->
  let config =
    { Ga.default_config with Ga.population_size = population; generations }
  in
  let result =
    Yield_exec.Pool.with_pool ~jobs:settings.jobs (fun pool ->
        Flow.Ota_flow.optimise ~pool ~config
          ~conditions:Tb.default_conditions ~rng:(Rng.create seed) ())
  in
  Printf.printf "%d evaluations, %d infeasible, front %d\n"
    result.Wbga.evaluations result.Wbga.failures
    (Array.length result.Wbga.front);
  Array.iteri
    (fun i (e : Wbga.entry) ->
      if i mod (Stdlib.max 1 (Array.length result.Wbga.front / 25)) = 0 then
        Printf.printf "gain %6.2f dB  pm %6.2f deg\n" e.Wbga.objectives.(0)
          e.Wbga.objectives.(1))
    result.Wbga.front;
  (match out with
  | Some path ->
      let columns =
        Array.append [| "gain"; "pm" |] (Array.map (fun (r : Yield_ga.Genome.range) -> r.Yield_ga.Genome.name) Ota.param_ranges)
      in
      let rows =
        Array.map
          (fun (e : Wbga.entry) -> Array.append e.Wbga.objectives e.Wbga.params)
          result.Wbga.front
      in
      Yield_table.Tbl_io.write ~path (Yield_table.Tbl_io.create ~columns ~rows);
      Printf.printf "front written to %s\n" path
  | None -> ());
  0

let optimize_cmd =
  let pop =
    Arg.(value & opt int 100 & info [ "population" ] ~docv:"N" ~doc:"population size")
  in
  let gens =
    Arg.(value & opt int 100 & info [ "generations" ] ~docv:"N" ~doc:"generation count")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc:"write the front as a .tbl file")
  in
  obs_cmd
    (Cmd.info "optimize" ~doc:"run the WBGA multi-objective optimisation")
    Term.(
      const optimize $ pop $ gens $ seed_term $ out)

(* ---------- flow ---------- *)

let report_flow ~out_dir flow =
  let written = Flow.save_tables flow ~dir:out_dir in
  Printf.printf "front %d points, %d variation points\n"
    (Array.length flow.Flow.front_points)
    (Array.length flow.Flow.var_points);
  Printf.printf
    "total simulations: %d (optimisation %d, front %d, mc %d)\n"
    (Flow.total_sims flow.Flow.counts)
    flow.Flow.counts.Flow.optimisation_sims flow.Flow.counts.Flow.front_sims
    flow.Flow.counts.Flow.mc_sims;
  (match flow.Flow.prescreen with
  | None -> ()
  | Some ps ->
      Printf.printf
        "prescreen: %d analysed, %d provably-fail (MC skipped), %d \
         provably-pass (%d budget-shrunk), %d undecided\n"
        ps.Flow.analysed ps.Flow.fail_skipped ps.Flow.provably_passed
        ps.Flow.pass_shrunk ps.Flow.undecided);
  Printf.printf "timings: optimisation %.1f s, mc %.1f s, total %.1f s\n"
    flow.Flow.timings.Flow.optimisation_s flow.Flow.timings.Flow.mc_s
    flow.Flow.timings.Flow.total_s;
  List.iter (Printf.printf "wrote %s\n") written;
  0

(* --topology, shared by flow and lint config: the chosen amplifier's flow
   and the testbench conditions it runs under *)
let topology_term =
  let topology = function
    | `Ota -> ((module Flow.Ota_flow : Flow.S), Tb.default_conditions)
    | `Miller ->
        ( (module Flow.Miller_flow : Flow.S),
          Yield_circuits.Miller_testbench.conditions )
  in
  Term.(
    const topology
    $ Arg.(
        value
        & opt (enum [ ("ota", `Ota); ("miller", `Miller) ]) `Ota
        & info [ "topology" ] ~docv:"NAME"
            ~doc:"circuit topology (ota or miller)"))

(* --checkpoint and --resume, shared by flow and lint config (which
   dry-runs the check flow would make) *)
let checkpoint_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"DIR"
        ~doc:
          "persist per-stage progress (WBGA generations, Monte Carlo \
           points) under DIR; combine with $(b,--resume) to continue a \
           killed run")

let resume_term =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "continue from the state in $(b,--checkpoint) DIR; the resumed run \
           is bit-identical to an uninterrupted one")

let flow ((module F : Flow.S), conditions) out_dir checkpoint_dir resume
    no_preflight config =
  let config = { config with Config.conditions } in
  match
    F.run ~log:print_endline ~preflight:(not no_preflight) ?checkpoint_dir
      ~resume config
  with
  | flow -> report_flow ~out_dir flow
  | exception Flow.Refused diags ->
      (* the flow has logged each finding; this only says why it stopped *)
      Printf.eprintf
        "yieldlab: flow refused before any simulation (%d error(s))\n"
        (Diagnostic.count Diagnostic.Error diags);
      2
  | exception Flow.Unfinished reason ->
      Printf.eprintf "yieldlab: flow could not finish: %s\n" reason;
      1

let flow_cmd =
  let out_dir =
    Arg.(value & opt string "." & info [ "out-dir" ] ~docv:"DIR" ~doc:"where to write the model tables")
  in
  let no_preflight =
    Arg.(
      value & flag
      & info [ "no-preflight" ]
          ~doc:
            "skip the preflight static analysis (config cross-checks, \
             checkpoint fingerprint dry-run, netlist lint) that otherwise \
             aborts the run on error-severity findings")
  in
  obs_cmd ~scope:Config.Flow
    (Cmd.info "flow" ~doc:"run the full model-generation flow (Figure 3)")
    Term.(
      const flow $ topology_term $ out_dir $ checkpoint_term $ resume_term
      $ no_preflight)

(* ---------- design ---------- *)

(* shared preflight of the table-consuming commands: refuse to run on
   error-severity findings, pass warnings through on stderr *)
let model_preflight ?spec ~tables_dir () =
  let diags = Flow.lint_models ?spec ~dir:tables_dir ~control:"3E" () in
  if Diagnostic.count Diagnostic.Error diags > 0 then begin
    prerr_endline (Diagnostic.list_to_text diags);
    prerr_endline
      "preflight found errors in the saved models — fix them or pass \
       --no-preflight";
    false
  end
  else begin
    List.iter
      (fun d -> prerr_endline ("preflight: " ^ Diagnostic.to_text d))
      diags;
    true
  end

let no_preflight_term =
  Arg.(
    value & flag
    & info [ "no-preflight" ]
        ~doc:
          "skip the static analysis of the saved model tables (and the \
           module they imply) that otherwise aborts on error-severity \
           findings")

let design tables_dir min_gain min_pm no_preflight =
  let spec = { Yield_target.min_gain_db = min_gain; min_pm_deg = min_pm } in
  match spec_refusals ~min_gain:(Some min_gain) ~min_pm:(Some min_pm) with
  | _ :: _ as refused -> refuse_settings refused
  | [] ->
  if (not no_preflight) && not (model_preflight ~spec ~tables_dir ()) then 2
  else
  match Flow.load_models ~dir:tables_dir ~control:"3E" with
  | exception Sys_error e ->
      prerr_endline ("cannot load tables: " ^ e);
      1
  | perf, var -> begin
      let model = Macromodel.create perf var in
      match Yield_target.plan model spec with
      | Error e ->
          prerr_endline e;
          1
      | Ok plan ->
          let p = plan.Yield_target.proposal in
          Printf.printf "variation at spec:  dGain %.2f %%, dPM %.2f %%\n"
            p.Macromodel.gain_delta_pct p.Macromodel.pm_delta_pct;
          Printf.printf "inflated targets:   gain %.2f dB, pm %.2f deg\n"
            p.Macromodel.proposed_gain_db p.Macromodel.proposed_pm_deg;
          Printf.printf "table design claim: gain %.2f dB, pm %.2f deg\n"
            p.Macromodel.design.Perf_model.gain_db
            p.Macromodel.design.Perf_model.pm_deg;
          Array.iteri
            (fun i name ->
              Printf.printf "  %-3s = %s m\n" name
                (Report.si p.Macromodel.design.Perf_model.params.(i)))
            Ota.param_names;
          Printf.printf "predicted yield: %.2f %%\n"
            (100. *. Yield_target.predicted_yield plan);
          0
    end

let design_cmd =
  let gain =
    Arg.(required & opt (some float) None & info [ "min-gain" ] ~docv:"DB" ~doc:"gain spec (dB)")
  in
  let pm =
    Arg.(required & opt (some float) None & info [ "min-pm" ] ~docv:"DEG" ~doc:"phase-margin spec (deg)")
  in
  obs_cmd
    (Cmd.info "design" ~doc:"yield-targeted design query against saved tables")
    Term.(
      const (fun d g p n _ -> design d g p n)
      $ tables_dir_term $ gain $ pm $ no_preflight_term)

(* ---------- filter ---------- *)

let filter_design gain_db rout seed =
  let amp = { Filter.gain_db; rout } in
  let r = Filter.optimise amp Filter.default_spec (Rng.create seed) in
  Printf.printf "C1 = %sF, C2 = %sF, C3 = %sF\n"
    (Report.si r.Filter.best.Filter.c1)
    (Report.si r.Filter.best.Filter.c2)
    (Report.si r.Filter.best.Filter.c3);
  Printf.printf "passband margin %.2f dB, stopband margin %.2f dB (meets spec: %b)\n"
    r.Filter.best_check.Filter.passband_margin_db
    r.Filter.best_check.Filter.stopband_margin_db
    r.Filter.best_check.Filter.meets_spec;
  if r.Filter.best_check.Filter.meets_spec then 0 else 1

let filter_cmd =
  let gain =
    Arg.(value & opt float 53. & info [ "gain" ] ~docv:"DB" ~doc:"OTA open-loop gain")
  in
  let rout =
    Arg.(value & opt float 2e6 & info [ "rout" ] ~docv:"OHM" ~doc:"OTA output resistance")
  in
  obs_cmd
    (Cmd.info "filter" ~doc:"design the Section 5 anti-aliasing filter")
    Term.(const (fun g r s _ -> filter_design g r s) $ gain $ rout $ seed_term)

(* ---------- step ---------- *)

let step params amplitude =
  (* a step that does not exist is refused before simulating, as
     Tb.step_perf would refuse it *)
  if amplitude = 0. || not (Float.is_finite amplitude) then
    refuse_settings
      [
        Config_lint.malformed_setting ~setting:"--amplitude"
          ~value:(Printf.sprintf "%g" amplitude)
          ~expected:"a finite, non-zero step in volts";
      ]
  else
    match Tb.step_perf ~amplitude params with
    | None ->
        prerr_endline "step response failed";
        1
    | Some s ->
        Printf.printf "slew rate      %8.2f V/us\n" s.Tb.slew_v_per_us;
        Printf.printf "1%% settling    %8s\n"
          (match s.Tb.settling_1pct_s with
          | Some t -> Report.si t ^ "s"
          | None -> "not reached");
        Printf.printf "overshoot      %8.2f %%\n" s.Tb.overshoot_pct;
        Printf.printf "follower error %8.2f mV\n" (1e3 *. s.Tb.final_error_v);
        0

let step_cmd =
  let amplitude =
    Arg.(value & opt float 0.5 & info [ "amplitude" ] ~docv:"V" ~doc:"input step size")
  in
  obs_cmd
    (Cmd.info "step" ~doc:"unity-gain follower step response (transient)")
    Term.(const (fun p a _ -> with_design p (fun p -> step p a)) $ param_term $ amplitude)

(* ---------- noise ---------- *)

let noise params =
  match Tb.input_referred_noise params with
  | None ->
      prerr_endline "noise analysis failed";
      1
  | Some (pairs, rms) ->
      Printf.printf "input-referred noise (to the unity-gain frequency): %.2f uVrms\n"
        (rms *. 1e6);
      Array.iteri
        (fun i (f, psd) ->
          if i mod 8 = 0 then
            Printf.printf "  %8sHz  %10.2f nV/rtHz\n" (Report.si f)
              (sqrt psd *. 1e9))
        pairs;
      0

let noise_cmd =
  obs_cmd
    (Cmd.info "noise" ~doc:"input-referred noise of a design")
    Term.(const (fun p _ -> with_design p noise) $ param_term)

(* ---------- sensitivity ---------- *)

let sensitivity params =
  let spec = Variation.default_spec in
  let run name eval =
    match Yield_process.Sensitivity.analyse ~spec ~eval with
    | Error e ->
        Printf.printf "%s: %s\n" name e;
        1
    | Ok results ->
        Printf.printf "%s variance decomposition:\n" name;
        List.iter
          (fun (r : Yield_process.Sensitivity.result) ->
            Printf.printf "  %-7s %5.1f %%  (%+.4g per sigma)\n"
              (Yield_process.Sensitivity.to_string
                 r.Yield_process.Sensitivity.component)
              (100. *. r.Yield_process.Sensitivity.variance_share)
              r.Yield_process.Sensitivity.per_sigma)
          results;
        0
  in
  let session = Tb.session params in
  let eval field draw =
    Option.map field (Tb.evaluate_with_draw session ~spec ~draw)
  in
  let a = run "gain" (eval (fun p -> p.Tb.gain_db)) in
  let b = run "phase margin" (eval (fun p -> p.Tb.phase_margin_deg)) in
  if a = 0 && b = 0 then 0 else 1

let sensitivity_cmd =
  obs_cmd
    (Cmd.info "sensitivity" ~doc:"global-variation sensitivity of a design")
    Term.(const (fun p _ -> with_design p sensitivity) $ param_term)

(* ---------- export-va ---------- *)

let export_va tables_dir out_dir no_preflight =
  if (not no_preflight) && not (model_preflight ~tables_dir ()) then 2
  else
  match Flow.load_models ~dir:tables_dir ~control:"3E" with
  | exception Sys_error e ->
      prerr_endline ("cannot load tables: " ^ e);
      1
  | perf, var ->
      let model = Macromodel.create perf var in
      Yield_resilience.Atomic_io.mkdir_p out_dir;
      let written = Yield_behavioural.Verilog_a.save model ~dir:out_dir in
      List.iter (Printf.printf "wrote %s\n") written;
      0

let export_va_cmd =
  let out_dir =
    Arg.(value & opt string "." & info [ "out-dir" ] ~docv:"DIR" ~doc:"output directory")
  in
  obs_cmd
    (Cmd.info "export-va"
       ~doc:"emit the Verilog-A behavioural module and its table files")
    Term.(
      const (fun t o n _ -> export_va t o n)
      $ tables_dir_term $ out_dir $ no_preflight_term)

(* ---------- netlist ---------- *)

let run_analysis ~sys circuit op analysis =
  match analysis with
  | Netlist.Op -> Format.printf "%a@." (Dcop.pp circuit) op
  | Netlist.Ac_analysis { per_decade; f_lo; f_hi; out } ->
      let freqs =
        Yield_spice.Ac.default_freqs ~per_decade ~f_lo ~f_hi ()
      in
      let bode = Yield_spice.Ac.transfer_by_name ~sys circuit op ~out ~freqs in
      let mags = Yield_spice.Measure.magnitudes_db bode in
      let phases = Yield_spice.Measure.phases_deg_unwrapped bode in
      Printf.printf "* ac analysis: v(%s)\n" out;
      Printf.printf "%-12s %-12s %-12s\n" "freq" "mag_db" "phase_deg";
      Array.iteri
        (fun i f -> Printf.printf "%-12.5g %-12.4f %-12.3f\n" f mags.(i) phases.(i))
        freqs
  | Netlist.Tran_analysis { dt; t_stop; out } -> begin
      match
        Yield_spice.Tran.run ~sys
          (Yield_spice.Tran.options ~t_stop ~dt ())
          circuit
      with
      | Error e -> prerr_endline (Yield_spice.Tran.error_to_string e)
      | Ok result ->
          let v = Yield_spice.Tran.voltage_by_name result circuit out in
          Printf.printf "* tran analysis: v(%s)\n" out;
          Printf.printf "%-12s %-12s\n" "time" "volts";
          Array.iteri
            (fun i t -> Printf.printf "%-12.5g %-12.6g\n" t v.(i))
            result.Yield_spice.Tran.times
    end
  | Netlist.Dc_analysis { source; start; stop; step; out } -> begin
      let n =
        Stdlib.max 2 (1 + int_of_float (Float.round ((stop -. start) /. step)))
      in
      let values = Yield_numeric.Vec.linspace start stop n in
      match Yield_spice.Dcsweep.run ~sys circuit ~source ~values with
      | Error e -> prerr_endline (Dcop.error_to_string e)
      | Ok sweep ->
          let v = Yield_spice.Dcsweep.voltage_by_name sweep circuit out in
          Printf.printf "* dc sweep of %s: v(%s)\n" source out;
          Printf.printf "%-12s %-12s\n" source out;
          Array.iteri
            (fun i x -> Printf.printf "%-12.6g %-12.6g\n" x v.(i))
            values
    end

let netlist_run ~print path =
  let failed (d : Diagnostic.t) =
    (match d.Diagnostic.span with
    | Some s ->
        Printf.eprintf "%s:%d:%d: %s\n" path s.Diagnostic.start_line
          s.Diagnostic.start_col d.Diagnostic.message
    | None -> prerr_endline d.Diagnostic.message);
    1
  in
  match Deck.load path with
  | Error d -> failed d
  | Ok deck when print ->
      (* canonical pretty-print only — the CI round-trip job diffs two
         passes of this to hold the printer to byte-idempotence *)
      print_string (Yield_spice.Netlist_printer.to_string deck.Deck.ast);
      0
  | Ok { Deck.elaborated = Error d; _ } -> failed d
  | Ok { Deck.elaborated = Ok { Deck.circuit; analyses; _ }; _ } as deck -> (
      (* a device value the simulator cannot use (N004-N006: zero,
         negative, NaN or infinite) and a malformed .ac sweep with no
         frequency grid (A004): refuse the deck with lint's own
         diagnostics before solving anything *)
      match Netlist_lint.refusals deck with
      | _ :: _ as malformed ->
          List.iter (fun d -> prerr_endline (Diagnostic.to_text d)) malformed;
          2
      | [] -> (
          (* the operating point and every analysis card solve in one
             session of the netlist's topology *)
          let sys = Yield_spice.Mna.sys circuit in
          match Dcop.solve ~sys circuit with
          | Error e ->
              prerr_endline (Dcop.error_to_string e);
              1
          | Ok op ->
              (* the operating point is always reported; analysis cards
                 run in order afterwards *)
              if analyses = [] then Format.printf "%a@." (Dcop.pp circuit) op
              else List.iter (fun (a, _) -> run_analysis ~sys circuit op a) analyses;
              0))

let netlist_cmd =
  let path =
    Arg.(required & pos 0 (some non_dir_file) None & info [] ~docv:"FILE" ~doc:"netlist file")
  in
  let print =
    Arg.(
      value & flag
      & info [ "print" ]
          ~doc:
            "print the canonical form of the netlist instead of solving it \
             (parse to the AST, pretty-print, exit; the output is a \
             byte-fixpoint of this very command)")
  in
  obs_cmd
    (Cmd.info "netlist" ~doc:"parse a netlist and print its DC operating point")
    Term.(const (fun p print _ -> netlist_run ~print p) $ path $ print)

(* ---------- lint ---------- *)

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "print findings as one JSON object on stdout instead of text \
           (stable shape: findings array + severity counts + worst)")

let sarif_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "sarif" ] ~docv:"FILE"
        ~doc:
          "also write the findings (including baseline-suppressed ones, \
           marked with SARIF suppressions) as a SARIF 2.1.0 log to FILE")

let baseline_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:
          "suppress findings whose fingerprints appear in the baseline \
           FILE; the exit code counts only fresh findings")

let write_baseline_term =
  Arg.(
    value & flag
    & info [ "write-baseline" ]
        ~doc:
          "write the current findings' fingerprints to the $(b,--baseline) \
           FILE (accepting them as known) and exit 0")

(* common tail of every lint subcommand: apply the baseline, render text or
   JSON, optionally emit SARIF, then exit by worst *fresh* severity
   (2 = errors, 1 = warnings only, 0 = clean or info-only) *)
let report_diags ?sarif ?baseline ?(write_baseline = false) ~json diags =
  let baselined =
    match (baseline, write_baseline) with
    | None, true ->
        Error "--write-baseline needs --baseline FILE to know where to write"
    | None, false -> Ok (diags, [], false)
    | Some path, true ->
        let b = Baseline.of_diags diags in
        Baseline.save ~path b;
        Printf.eprintf "wrote baseline %s (%d fingerprint(s))\n" path
          (List.length (Baseline.fingerprints b));
        Ok (diags, [], true)
    | Some path, false -> begin
        match Baseline.load ~path with
        | Error msg -> Error ("cannot load baseline: " ^ msg)
        | Ok b ->
            let fresh, suppressed = Baseline.partition b diags in
            Ok (fresh, suppressed, false)
      end
  in
  match baselined with
  | Error msg ->
      prerr_endline msg;
      2
  | Ok (fresh, suppressed, accepted) ->
      Option.iter (fun path -> Sarif.save ~path ~suppressed fresh) sarif;
      if json then begin
        let body =
          match Diagnostic.list_to_json fresh with
          | Yield_obs.Json.Obj fields when suppressed <> [] ->
              Yield_obs.Json.Obj
                (fields
                @ [ ("suppressed", Yield_obs.Json.Int (List.length suppressed)) ])
          | other -> other
        in
        print_endline (Yield_obs.Json.to_string body)
      end
      else begin
        print_endline (Diagnostic.list_to_text fresh);
        if suppressed <> [] then
          Printf.printf "%d finding(s) suppressed by baseline\n"
            (List.length suppressed)
      end;
      if accepted then 0 else Diagnostic.exit_code fresh

let pairs_of_topology = function
  | `None -> []
  | `Ota -> Ota.symmetric_pairs
  | `Miller -> Yield_circuits.Miller.symmetric_pairs

let lint_netlist json sarif baseline write_baseline topology files =
  let pairs = pairs_of_topology topology in
  report_diags ?sarif ?baseline ~write_baseline ~json
    (List.concat_map
       (fun f ->
         (* N codes (connectivity, device values, topology invariants) plus
            A/R codes (analysis-card preconditions) on one loaded deck *)
         let deck = Deck.load f in
         Netlist_lint.check_deck ~tech:Tech.c35 ~pairs deck
         @ Ac_tran_lint.check_deck deck)
       files)

let lint_netlist_cmd =
  let files =
    Arg.(
      non_empty & pos_all non_dir_file []
      & info [] ~docv:"FILE" ~doc:"netlist file(s) to lint")
  in
  let topology =
    Arg.(
      value
      & opt (enum [ ("none", `None); ("ota", `Ota); ("miller", `Miller) ]) `None
      & info [ "topology" ] ~docv:"NAME"
          ~doc:
            "also assert the named topology's symmetric-pair W/L invariants \
             (ota or miller)")
  in
  obs_cmd
    (Cmd.info "netlist"
       ~doc:
         "lint netlists: connectivity (floating nodes, no-DC-path, \
          voltage-source loops), device values, topology invariants, and \
          .ac/.tran analysis-card preconditions (reachability, interval \
          time-constant bounds)")
    Term.(
      const (fun j s b w t fs _ -> lint_netlist j s b w t fs)
      $ json_flag $ sarif_term $ baseline_term $ write_baseline_term
      $ topology $ files)

let lint_tbl json sarif baseline write_baseline axes control files =
  report_diags ?sarif ?baseline ~write_baseline ~json
    (List.concat_map (fun f -> Table_lint.check_file ?axes ?control f) files)

let lint_tbl_cmd =
  let files =
    Arg.(
      non_empty & pos_all non_dir_file []
      & info [] ~docv:"FILE" ~doc:".tbl file(s) to lint")
  in
  let axes =
    Arg.(
      value
      & opt (some (list string)) None
      & info [ "axes" ] ~docv:"COL,..."
          ~doc:
            "columns serving as interpolation abscissae (default: the first \
             column); each must be strictly increasing")
  in
  let control =
    Arg.(
      value
      & opt (some string) None
      & info [ "control" ] ~docv:"STR"
          ~doc:
            "table-model control string to check against the axes (e.g. the \
             paper's '3E')")
  in
  obs_cmd
    (Cmd.info "tbl"
       ~doc:
         "lint .tbl table models: monotone axes, NaN/Inf cells, control \
          string consistency")
    Term.(
      const (fun j s b w a c fs _ -> lint_tbl j s b w a c fs)
      $ json_flag $ sarif_term $ baseline_term $ write_baseline_term
      $ axes $ control $ files)

let lint_config json sarif baseline write_baseline
    ((module F : Flow.S), conditions) checkpoint_dir resume fault_spec_check
    settings =
  let diags =
    match settings with
    | Error refused -> refused
    | Ok config ->
        F.check_config ?checkpoint_dir ~resume { config with Config.conditions }
  in
  let fault_diags =
    match fault_spec_check with
    | None -> []
    | Some spec -> Config_lint.check_fault_spec spec
  in
  report_diags ?sarif ?baseline ~write_baseline ~json (diags @ fault_diags)

let lint_config_cmd =
  let fault_spec_check =
    Arg.(
      value
      & opt (some string) None
      & info [ "check-fault-spec" ] ~docv:"SPEC"
          ~doc:
            "statically validate a fault-injection spec (names must be \
             registered points, schedules must be able to fire) without \
             arming it")
  in
  settings_cmd Config.Flow
    (Cmd.info "config"
       ~doc:
         "preflight the configuration flow would run under the same \
          settings and topology: scale cross-checks, checkpoint fingerprint \
          dry-run, fault-spec validation")
    Term.(
      const lint_config $ json_flag $ sarif_term $ baseline_term
      $ write_baseline_term $ topology_term $ checkpoint_term $ resume_term
      $ fault_spec_check)

let window_conv =
  let parse s =
    match String.split_on_char ',' s with
    | [ a; b ] -> begin
        match (float_of_string_opt a, float_of_string_opt b) with
        | Some lo, Some hi -> Ok (lo, hi)
        | _ -> Error (`Msg "expected LO,HI (two numbers)")
      end
    | _ -> Error (`Msg "expected LO,HI (two numbers)")
  in
  let print ppf (lo, hi) = Format.fprintf ppf "%g,%g" lo hi in
  Arg.conv (parse, print)

let lint_va json sarif baseline write_baseline dir gain_window pm_window files =
  let specs =
    (match gain_window with Some w -> [ ("gain", w) ] | None -> [])
    @ (match pm_window with Some w -> [ ("pm", w) ] | None -> [])
  in
  let specs = match specs with [] -> None | l -> Some l in
  report_diags ?sarif ?baseline ~write_baseline ~json
    (List.concat_map (fun f -> Va_lint.check_file ?dir ?specs f) files)

let lint_va_cmd =
  let files =
    Arg.(
      non_empty & pos_all non_dir_file []
      & info [] ~docv:"FILE" ~doc:"Verilog-A file(s) to lint")
  in
  let dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "directory holding the referenced .tbl files (default: each \
             file's own directory)")
  in
  let gain_window =
    Arg.(
      value
      & opt (some window_conv) None
      & info [ "spec-gain" ] ~docv:"LO,HI"
          ~doc:
            "gain window (dB) the model must serve; the interval evaluation \
             proves the inflated window stays inside the table domains")
  in
  let pm_window =
    Arg.(
      value
      & opt (some window_conv) None
      & info [ "spec-pm" ] ~docv:"LO,HI"
          ~doc:"phase-margin window (deg) the model must serve")
  in
  obs_cmd
    (Cmd.info "va"
       ~doc:
         "lint Verilog-A behavioural modules: ports and disciplines, \
          $table_model shape and control strings, referenced .tbl files, \
          use-before-assign, interval spec-window coverage")
    Term.(
      const (fun j s b w d g p fs _ -> lint_va j s b w d g p fs)
      $ json_flag $ sarif_term $ baseline_term $ write_baseline_term
      $ dir $ gain_window $ pm_window $ files)

let lint_corners json sarif baseline write_baseline k_sigma min_gain min_pm
    files =
  let window =
    match (min_gain, min_pm) with
    | None, None -> None
    | g, p ->
        Some
          {
            Corner_lint.min_gain_db = Option.value g ~default:0.;
            min_pm_deg = Option.value p ~default:0.;
          }
  in
  report_diags ?sarif ?baseline ~write_baseline ~json
    (List.concat_map
       (fun f -> Corner_lint.check_deck ~k_sigma ?window (Deck.load f))
       files)

let lint_corners_cmd =
  let files =
    Arg.(
      non_empty & pos_all non_dir_file []
      & info [] ~docv:"FILE" ~doc:"netlist file(s) to analyse")
  in
  let k_sigma =
    Arg.(
      value & opt float 3.
      & info [ "k-sigma" ] ~docv:"SIGMA"
          ~doc:
            "truncate every per-device statistical parameter box at K \
             sigmas (global + Pelgrom mismatch); all proofs hold over this \
             box")
  in
  let min_gain =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-gain" ] ~docv:"DB"
          ~doc:"spec window floor on DC gain (default 0)")
  in
  let min_pm =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-pm" ] ~docv:"DEG"
          ~doc:"spec window floor on phase margin (default 0)")
  in
  obs_cmd
    (Cmd.info "corners"
       ~doc:
         "corner-aware abstract interpretation of netlists: interval DC/AC \
          analysis over the whole statistical parameter box — per-device \
          saturation proofs (D codes) and provably-fail / provably-pass / \
          undecided spec verdicts with (gain, PM) enclosures as evidence \
          (Y codes), against the first .ac card's sweep and probe")
    Term.(
      const (fun j s b w k g p fs _ -> lint_corners j s b w k g p fs)
      $ json_flag $ sarif_term $ baseline_term $ write_baseline_term
      $ k_sigma $ min_gain $ min_pm $ files)

let lint_codes json =
  if json then
    print_endline
      (Json.to_string
         (Json.Obj
            (List.map
               (fun (c, d) -> (c, Json.String d))
               Sarif.rule_descriptions)))
  else
    List.iter
      (fun (c, d) -> Printf.printf "%s\t%s\n" c d)
      Sarif.rule_descriptions;
  0

let lint_codes_cmd =
  obs_cmd
    (Cmd.info "codes"
       ~doc:
         "list every stable diagnostic code with its registry description \
          (the same registry SARIF rule metadata is generated from); CI \
          diffs this against the README code table")
    Term.(const (fun j _ -> lint_codes j) $ json_flag)

let lint_cmd =
  Cmd.group
    (Cmd.info "lint"
       ~doc:
         "preflight static analysis: diagnostics with stable codes \
          (N/T/C/F/A/R/V/D/Y), text, JSON or SARIF output, baseline \
          suppression, worst-severity exit code")
    [
      lint_netlist_cmd; lint_tbl_cmd; lint_config_cmd; lint_va_cmd;
      lint_corners_cmd; lint_codes_cmd;
    ]

(* ---------- serve / loadgen ---------- *)

module Addr = Yield_serve.Addr
module Server = Yield_serve.Server
module Loadgen = Yield_serve.Loadgen
module Client = Yield_serve.Client

let addr_conv ~what =
  let parse s =
    match Addr.parse s with Ok a -> Ok a | Error msg -> Error (`Msg msg)
  in
  let print ppf a = Format.pp_print_string ppf (Addr.to_string a) in
  ignore what;
  Arg.conv (parse, print)

let default_addr = Addr.Unix_sock "yieldlab.sock"

let serve listen tables_dir deadline_ms queue_cap max_conns drain_grace quiet
    (config : Config.t) =
  let log = if quiet then ignore else prerr_endline in
  let cfg =
    {
      (Server.default ~addr:listen ~tables_dir) with
      Server.jobs = config.jobs;
      deadline_s = deadline_ms /. 1e3;
      queue_capacity = queue_cap;
      max_conns;
      drain_grace_s = drain_grace;
      log;
    }
  in
  Server.run cfg

let serve_cmd =
  let listen =
    Arg.(
      value
      & opt (addr_conv ~what:"listen") default_addr
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "address to serve on: $(b,unix:PATH) or $(b,tcp:HOST:PORT) \
             (default $(b,unix:yieldlab.sock))")
  in
  let deadline_ms =
    Arg.(
      value & opt float 250.
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "per-request deadline in milliseconds; a query that cannot be \
             answered in time gets a typed $(b,timeout) frame.  0 disables")
  in
  let queue_cap =
    Arg.(
      value & opt int 1024
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "admission queue bound; beyond it requests are shed immediately \
             with an $(b,overloaded) frame")
  in
  let max_conns =
    Arg.(
      value & opt int 1024
      & info [ "max-conns" ] ~docv:"N" ~doc:"concurrent connection limit")
  in
  let drain_grace =
    Arg.(
      value & opt float 5.
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"maximum time to finish in-flight work when draining")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"suppress the server log lines")
  in
  obs_cmd
    (Cmd.info "serve"
       ~doc:
         "serve the saved model tables over a socket: line-delimited JSON \
          queries (ping/lookup/design plus health/ready/reload/shutdown), \
          per-request deadlines, bounded-queue load shedding, lint-gated \
          hot reload on SIGHUP, graceful drain on SIGTERM")
    Term.(
      const serve
      $ listen $ tables_dir_term $ deadline_ms $ queue_cap $ max_conns
      $ drain_grace $ quiet)

let probe addr op =
  match Client.connect addr with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "yieldlab: cannot reach %s: %s\n" (Addr.to_string addr)
        (Unix.error_message e);
      1
  | c ->
      let outcome =
        try
          let frame = Client.request c (Json.Obj [ ("op", Json.String op) ]) in
          print_endline (Json.to_string frame);
          (match Json.member "ok" frame with
          | Some (Json.Bool true) -> 0
          | Some _ | None -> 1)
        with Failure msg | Unix.Unix_error (_, msg, _) ->
          Printf.eprintf "yieldlab: probe failed: %s\n" msg;
          1
      in
      Client.close c;
      outcome

let loadgen addr clients duration seed probe_op out =
  match probe_op with
  | Some op -> probe addr op
  | None -> begin
      match Loadgen.run ~seed ~addr ~clients ~duration_s:duration () with
      | Error msg ->
          Printf.eprintf "yieldlab: %s\n" msg;
          1
      | Ok r ->
          print_endline (Loadgen.to_text r);
          (match out with
          | None -> ()
          | Some path ->
              Atomic_io.write_file ~path (Json.to_string (Loadgen.to_json r));
              Printf.printf "wrote %s\n" path);
          if r.Loadgen.sent > 0 && r.Loadgen.ok = 0 then 1 else 0
    end

let loadgen_cmd =
  let addr =
    Arg.(
      value
      & opt (addr_conv ~what:"addr") default_addr
      & info [ "addr" ] ~docv:"ADDR"
          ~doc:"server address: $(b,unix:PATH) or $(b,tcp:HOST:PORT)")
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"concurrent client connections")
  in
  let duration =
    Arg.(
      value & opt float 5.
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"how long to drive load")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"deterministic op-mix seed")
  in
  let probe_op =
    Arg.(
      value
      & opt (some string) None
      & info [ "probe" ] ~docv:"OP"
          ~doc:
            "one-shot mode: send a single $(i,OP) request (e.g. $(b,health), \
             $(b,ready)), print the response frame, exit 0 iff it is \
             $(b,ok:true)")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"write the bench document (yieldlab-bench-serve/v1) to FILE")
  in
  obs_cmd
    (Cmd.info "loadgen"
       ~doc:
         "drive closed-loop load at a running server and report throughput \
          and latency percentiles (p50/p95/p99); $(b,--probe) sends one \
          admin request for smoke checks")
    Term.(
      const (fun a c d s p o _ -> loadgen a c d s p o)
      $ addr $ clients $ duration $ seed $ probe_op $ out)

(* ---------- main ---------- *)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "yieldlab" ~version:"1.0.0"
      ~doc:"combined performance and yield behavioural models for analogue ICs"
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [
            ota_eval_cmd;
            miller_eval_cmd;
            corners_cmd;
            mc_cmd;
            optimize_cmd;
            flow_cmd;
            design_cmd;
            filter_cmd;
            step_cmd;
            noise_cmd;
            sensitivity_cmd;
            export_va_cmd;
            netlist_cmd;
            lint_cmd;
            serve_cmd;
            loadgen_cmd;
          ]))
