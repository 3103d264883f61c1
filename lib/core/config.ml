module Config_lint = Yield_analyse.Config_lint
module Linsys = Yield_numeric.Linsys

type telemetry = {
  trace_stream : string option;
  span_sample : string option;
  snapshot_every_s : float option;
}

type prescreen = {
  enabled : bool;
  k_sigma : float;
  min_gain_db : float;
  min_pm_deg : float;
  pass_budget_frac : float;
}

type t = {
  conditions : Yield_circuits.Ota_testbench.conditions;
  variation : Yield_process.Variation.spec;
  ga : Yield_ga.Ga.config;
  mc_samples : int;
  front_stride : int;
  control : string;
  seed : int;
  jobs : int;
  solver : Linsys.backend;
  telemetry : telemetry;
  prescreen : prescreen;
}

let no_telemetry =
  { trace_stream = None; span_sample = None; snapshot_every_s = None }

let no_prescreen =
  {
    enabled = false;
    k_sigma = 3.;
    min_gain_db = 0.;
    min_pm_deg = 0.;
    pass_budget_frac = 1.;
  }

let paper_scale =
  {
    conditions = Yield_circuits.Ota_testbench.default_conditions;
    variation = Yield_process.Variation.default_spec;
    ga =
      {
        Yield_ga.Ga.default_config with
        Yield_ga.Ga.population_size = 100;
        generations = 100;
      };
    mc_samples = 200;
    front_stride = 1;
    control = "3E";
    seed = 2008;
    jobs = 1;
    solver = Linsys.Dense;
    telemetry = no_telemetry;
    prescreen = no_prescreen;
  }

let fast_scale =
  {
    paper_scale with
    ga =
      {
        Yield_ga.Ga.default_config with
        Yield_ga.Ga.population_size = 40;
        generations = 25;
      };
    mc_samples = 40;
    front_stride = 4;
  }

let scale_name t =
  if
    t.ga.Yield_ga.Ga.population_size = paper_scale.ga.Yield_ga.Ga.population_size
    && t.ga.Yield_ga.Ga.generations = paper_scale.ga.Yield_ga.Ga.generations
    && t.mc_samples = paper_scale.mc_samples
  then "paper-scale"
  else "reduced-scale"

(* ---------- the settings registry ---------- *)

type scope = Global | Flow

type setting = {
  name : string;
  flags : string list;
  var : string;
  docv : string option;
  scope : scope;
  default : string;
  clause : string;
  doc : string;
  parse :
    source:string -> string -> t -> (t, Yield_analyse.Diagnostic.t) result;
  fingerprint : t -> string option;
}

let entry ?docv ?(scope = Flow) ?(clause = "—") ?(fingerprint = fun _ -> None)
    name flags var ~default ~doc parse =
  { name; flags; var; docv; scope; default; clause; doc; parse; fingerprint }

(* "0" is off, anything else on (an empty variable is unset) *)
let switch set ~source:_ raw t = Ok (set t (raw <> "0"))

(* a finite number accepted by [ok], else C008 naming the source and text *)
let number ?(expected = "a number") ?(ok = fun _ -> true) set ~source raw t =
  match float_of_string_opt raw with
  | Some v when Float.is_finite v && ok v -> Ok (set t v)
  | Some _ | None ->
      Error (Config_lint.malformed_setting ~setting:source ~value:raw ~expected)

let prescreen_field set t v = { t with prescreen = set t.prescreen v }

(* [%g] when it reads back exactly (every fingerprint written so far),
   else the exact hex float *)
let exact x =
  let g = Printf.sprintf "%g" x in
  if float_of_string g = x then g else Printf.sprintf "%h" x

(* registry order is fingerprint order: the prescreen clause precedes the
   solver's in every existing checkpoint *)
let settings =
  [
    entry "fast" [ "fast" ] "YIELDLAB_FAST" ~default:"off (paper scale)"
      ~clause:"none (the scale always is: `pop`, `gens`, `mc`, `stride`)"
      ~doc:
        (Printf.sprintf
           "reduced-scale smoke run: a %d x %d WBGA and %d Monte Carlo \
            samples on one front point in %d, instead of the paper's %d x %d \
            and %d on every point"
           fast_scale.ga.population_size fast_scale.ga.generations
           fast_scale.mc_samples fast_scale.front_stride
           paper_scale.ga.population_size paper_scale.ga.generations
           paper_scale.mc_samples)
      (switch (fun t on ->
           let s = if on then fast_scale else paper_scale in
           {
             t with
             ga = s.ga;
             mc_samples = s.mc_samples;
             front_stride = s.front_stride;
           }));
    entry "jobs" [ "jobs"; "j" ] "YIELDLAB_JOBS" ~docv:"N" ~scope:Global
      ~default:"the recommended domain count"
      ~doc:
        "evaluate over N domains; every parallel stage (WBGA, front \
         re-simulation, Monte Carlo) obeys it, results are identical for \
         any N, and 1 runs serially"
      (fun ~source raw t ->
        match int_of_string_opt raw with
        | Some n when n >= 1 -> Ok { t with jobs = n }
        | Some n -> Error (Config_lint.jobs_below_one ~setting:source n)
        | None ->
            Error
              (Config_lint.malformed_setting ~setting:source ~value:raw
                 ~expected:"a positive integer"));
    entry "trace_stream" [ "trace-stream" ] "YIELDLAB_TRACE_STREAM"
      ~docv:"FILE" ~scope:Global ~default:"none"
      ~doc:
        "stream every span event to FILE as it happens, one flushed line \
         per event: `.jsonl` appends JSONL lines, any other `.json` grows a \
         Chrome trace array"
      (fun ~source:_ raw t ->
        Ok { t with telemetry = { t.telemetry with trace_stream = Some raw } });
    entry "span_sample" [ "span-sample" ] "YIELDLAB_SPAN_SAMPLE" ~docv:"SPEC"
      ~scope:Global ~default:"none (every span kept)"
      ~doc:
        "thin high-frequency spans deterministically, e.g. \
         `mc.batch=0.1;exec.*=0`; the kept set is identical at any jobs \
         count, and metrics still see every span"
      (fun ~source raw t ->
        match Yield_obs.Sampler.parse raw with
        | Ok () ->
            let telemetry = { t.telemetry with span_sample = Some raw } in
            Ok { t with telemetry }
        | Error msg ->
            Error
              (Config_lint.malformed_setting ~setting:source ~value:raw
                 ~expected:("a span-sample spec (" ^ msg ^ ")")));
    entry "snapshot_every" [ "snapshot-every" ] "YIELDLAB_SNAPSHOT_EVERY"
      ~docv:"SECONDS" ~scope:Global ~default:"none"
      ~doc:
        "with a trace stream, also append a metrics-delta snapshot line \
         every SECONDS seconds, so progress counters survive a crash"
      (fun ~source raw t ->
        (* the trace stream's entry precedes this one *)
        number
          ~expected:"a positive number of seconds, given with a trace stream"
          ~ok:(fun s -> s > 0. && t.telemetry.trace_stream <> None)
          (fun t s ->
            let telemetry = { t.telemetry with snapshot_every_s = Some s } in
            { t with telemetry })
          ~source raw t);
    entry "prescreen" [ "prescreen" ] "YIELDLAB_PRESCREEN" ~default:"off"
      ~clause:"`prescreen=k:K,g:G,pm:P,b:B` when on"
      ~fingerprint:(fun t ->
        let p = t.prescreen in
        if not p.enabled then None
        else
          Some
            (Printf.sprintf "prescreen=k:%s,g:%s,pm:%s,b:%s" (exact p.k_sigma)
               (exact p.min_gain_db) (exact p.min_pm_deg)
               (exact p.pass_budget_frac)))
      ~doc:
        "corner-proof Monte Carlo prescreen: provably-fail front points skip \
         their Monte Carlo batch, provably-pass points may run a reduced \
         budget, undecided points run unchanged"
      (switch (prescreen_field (fun p enabled -> { p with enabled })));
    entry "prescreen_k" [ "prescreen-k" ] "YIELDLAB_PRESCREEN_K" ~docv:"SIGMA"
      ~default:(exact no_prescreen.k_sigma) ~clause:"in `prescreen`"
      ~doc:
        "truncate the proof's parameter box at SIGMA standard deviations; its \
         verdicts about unbounded Monte Carlo hold up to the normal mass \
         outside the box"
      (number (prescreen_field (fun p k_sigma -> { p with k_sigma })));
    entry "prescreen_min_gain" [ "prescreen-min-gain" ]
      "YIELDLAB_PRESCREEN_MIN_GAIN" ~docv:"DB"
      ~default:(exact no_prescreen.min_gain_db) ~clause:"in `prescreen`"
      ~doc:"the spec window's floor on DC gain for the prescreen's verdicts"
      (number (prescreen_field (fun p min_gain_db -> { p with min_gain_db })));
    entry "prescreen_min_pm" [ "prescreen-min-pm" ] "YIELDLAB_PRESCREEN_MIN_PM"
      ~docv:"DEG" ~default:(exact no_prescreen.min_pm_deg)
      ~clause:"in `prescreen`"
      ~doc:
        "the spec window's floor on phase margin for the prescreen's \
         verdicts"
      (number (prescreen_field (fun p min_pm_deg -> { p with min_pm_deg })));
    entry "prescreen_budget" [ "prescreen-budget" ]
      "YIELDLAB_PRESCREEN_PASS_BUDGET" ~docv:"FRAC"
      ~default:(exact no_prescreen.pass_budget_frac) ~clause:"in `prescreen`"
      ~doc:
        "the fraction of the Monte Carlo budget a provably-pass point still \
         runs, in (0, 1]; 1 disables the shrink"
      (number ~expected:"a fraction in (0, 1]"
         ~ok:(fun f -> f > 0. && f <= 1.)
         (prescreen_field (fun p pass_budget_frac ->
              { p with pass_budget_frac })));
    entry "solver" [ "solver" ] "YIELDLAB_SOLVER" ~docv:"NAME"
      ~default:"dense" ~clause:"`solver=csr;mc-start=nominal` for csr"
      ~fingerprint:(fun t ->
        (* a csr sample's Newton starts at its front point's nominal
           operating point, and the tag says so: a csr checkpoint tagged
           plain [solver=csr] holds cold-started points and is refused *)
        match t.solver with
        | Linsys.Dense -> None
        | Linsys.Csr -> Some "solver=csr;mc-start=nominal")
      ~doc:
        "linear-solver backend for the Monte Carlo inner loop: dense \
         (bit-identical to historical runs) or csr (sparse LU with a \
         compiled elimination per topology, samples warm-started at the \
         nominal operating point); the WBGA and the nominal front always \
         run dense"
      (fun ~source raw t ->
        match Linsys.backend_of_string raw with
        | Some solver -> Ok { t with solver }
        | None -> Error (Config_lint.unknown_solver ~setting:source raw));
  ]

let taken_by scope =
  List.filter (fun s -> scope = Flow || s.scope = Global) settings

let resolve ?(scope = Flow) ?(flags = []) base =
  let given s =
    match List.assoc_opt s.name flags with
    | Some raw -> Some ("--" ^ List.hd s.flags, raw)
    | None -> (
        match Sys.getenv_opt s.var with
        | None | Some "" -> None
        | Some raw -> Some (s.var, raw))
  in
  let apply (t, refused) s =
    match given s with
    | Some (source, raw) -> (
        match s.parse ~source raw t with
        | Ok t -> (t, refused)
        | Error d -> (t, d :: refused))
    | None -> (t, refused)
  in
  match List.fold_left apply (base, []) (taken_by scope) with
  | t, [] -> Ok t
  | _, refused -> Error (List.rev refused)

let base () = { paper_scale with jobs = Yield_exec.Jobs.recommended () }

let of_env () = resolve (base ())

let settings_table () =
  let row cells = "| " ^ String.concat " | " cells ^ " |\n" in
  let code s = "`" ^ s ^ "`" in
  let flag s =
    let arg = match s.docv with Some v -> " " ^ v | None -> "" in
    let dash f = if String.length f = 1 then "-" else "--" in
    String.concat ", " (List.map (fun f -> code (dash f ^ f ^ arg)) s.flags)
    ^ if s.scope = Global then " (every subcommand)" else ""
  in
  String.concat ""
    (row
       [ "setting"; "flag"; "variable"; "default"; "fingerprint clause";
         "meaning" ]
    :: row (List.init 6 (fun _ -> "---"))
    :: List.map
         (fun s ->
           row [ code s.name; flag s; code s.var; s.default; s.clause; s.doc ])
         settings)

(* ---------- the fingerprint ---------- *)

let hex = Printf.sprintf "%h"

(* the exact rendering of a structured input: every leaf, floats as hex *)
let render = String.concat ","

let render_model (m : Yield_spice.Mosfet.model) =
  render
    ((match m.polarity with Yield_spice.Mosfet.Nmos -> "n" | Pmos -> "p")
    :: List.map hex
         [ m.vth0; m.kp; m.gamma; m.phi; m.lambda0; m.n_slope; m.cox; m.cgso;
           m.cgdo; m.cj; m.cjsw; m.ext ])

let render_conditions (c : Yield_circuits.Testbench.conditions) =
  render
    [ Printf.sprintf "%S" c.tech.name; hex c.tech.vdd; render_model c.tech.nmos;
      render_model c.tech.pmos; hex c.tech.l_min; hex c.vcm; hex c.load_cap;
      hex c.f_lo; hex c.f_hi; string_of_int c.points_per_decade;
      hex c.min_unity_gain_hz ]

let render_variation (v : Yield_process.Variation.spec) =
  render
    (List.map hex
       [ v.global.sigma_vth_n; v.global.sigma_vth_p; v.global.sigma_kp_rel_n;
         v.global.sigma_kp_rel_p; v.global.sigma_lambda_rel; v.mismatch.avt_n;
         v.mismatch.avt_p; v.mismatch.abeta_n; v.mismatch.abeta_p ])

(* the operators; the population and generation counts are [pop]/[gens] *)
let render_ga (g : Yield_ga.Ga.config) =
  let module O = Yield_ga.Operators in
  render
    [
      (match g.selection with
      | O.Tournament k -> "tournament:" ^ string_of_int k
      | O.Roulette -> "roulette");
      (match g.crossover with
      | O.One_point -> "one-point"
      | O.Uniform p -> "uniform:" ^ hex p
      | O.Blend a -> "blend:" ^ hex a
      | O.Sbx eta -> "sbx:" ^ hex eta);
      hex g.crossover_rate;
      (match g.mutation with
      | O.Gaussian { sigma; rate } -> "gaussian:" ^ hex sigma ^ ":" ^ hex rate
      | O.Uniform_reset { rate } -> "uniform-reset:" ^ hex rate
      | O.Polynomial { eta; rate } -> "polynomial:" ^ hex eta ^ ":" ^ hex rate);
      string_of_int g.elite_count;
    ]

(* the digests of the renderings every existing checkpoint was written
   under, before these inputs joined the fingerprint *)
let ga_was = "f635df7de97a2418a267d0406998b63b"

let variation_was = "b0a6739e23fcb2a6feacaed71549097a"

let conditions_was =
  [
    (Yield_circuits.Ota.name, "868413651177361cb4d592ec4c382203");
    (Yield_circuits.Miller.name, "b262f9aed60ab7188c6918d0c73a0d29");
  ]

(* a structured input's clause: the digest of its rendering, absent when it
   is the one every existing checkpoint was written under *)
let digest_clause key ~was text =
  let d = Digest.to_hex (Digest.string text) in
  if was = Some d then None else Some (key ^ "=" ^ d)

let fingerprint ?(amplifier = Yield_circuits.Ota.name) t =
  (* [jobs] and [telemetry] are deliberately absent: results are
     jobs-independent and observability never feeds back into them, so a
     serial checkpoint may be resumed under a pool, with or without a
     trace stream *)
  let base =
    Printf.sprintf "v1;seed=%d;pop=%d;gens=%d;mc=%d;stride=%d;control=%s"
      t.seed t.ga.Yield_ga.Ga.population_size t.ga.Yield_ga.Ga.generations
      t.mc_samples t.front_stride t.control
  in
  String.concat ";"
    (base
    :: List.filter_map Fun.id
         ([
            digest_clause "ga" ~was:(Some ga_was) (render_ga t.ga);
            digest_clause "conditions"
              ~was:(List.assoc_opt amplifier conditions_was)
              (render_conditions t.conditions);
            digest_clause "variation" ~was:(Some variation_was)
              (render_variation t.variation);
          ]
         @ List.map (fun s -> s.fingerprint t) settings
         @ [
             (if amplifier = Yield_circuits.Ota.name then None
              else Some ("amplifier=" ^ amplifier));
           ]))
