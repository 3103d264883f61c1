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
  solver : string;
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
    solver = "dense";
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

(* a number read from [setting]'s raw text: finite and accepted by [ok],
   else C008 naming the setting and the text, never a default *)
let number ~setting ~expected ok raw =
  match float_of_string_opt raw with
  | Some v when Float.is_finite v && ok v -> Ok v
  | Some _ | None ->
      Error [ Yield_analyse.Config_lint.malformed_setting ~setting ~value:raw ~expected ]

(* empty counts as unset *)
let nonempty k = match Sys.getenv_opt k with Some "" | None -> None | Some v -> Some v

let diags = function Ok _ -> [] | Error ds -> ds

let telemetry_of_env () =
  let snapshot_every_s =
    match nonempty "YIELDLAB_SNAPSHOT_EVERY" with
    | None -> Ok None
    | Some raw ->
        Result.map Option.some
          (number ~setting:"YIELDLAB_SNAPSHOT_EVERY"
             ~expected:"a positive number of seconds" (fun s -> s > 0.) raw)
  in
  Result.map
    (fun snapshot_every_s ->
      {
        trace_stream = nonempty "YIELDLAB_TRACE_STREAM";
        span_sample = nonempty "YIELDLAB_SPAN_SAMPLE";
        snapshot_every_s;
      })
    snapshot_every_s

let budget_expected = "a fraction in (0, 1]"

let budget_ok f = f > 0. && f <= 1.

let prescreen_of_flags ~k_sigma ~min_gain_db ~min_pm_deg ~pass_budget_frac =
  if budget_ok pass_budget_frac then
    Ok { enabled = true; k_sigma; min_gain_db; min_pm_deg; pass_budget_frac }
  else
    Error
      [
        Yield_analyse.Config_lint.malformed_setting ~setting:"--prescreen-budget"
          ~value:(Printf.sprintf "%g" pass_budget_frac)
          ~expected:budget_expected;
      ]

let prescreen_of_env () =
  let d = no_prescreen in
  match Sys.getenv_opt "YIELDLAB_PRESCREEN" with
  | None | Some ("" | "0") -> Ok d
  | Some _ -> (
      let num setting ?(expected = "a number") ?(ok = fun _ -> true) default =
        match nonempty setting with
        | None -> Ok default
        | Some raw -> number ~setting ~expected ok raw
      in
      match
        ( num "YIELDLAB_PRESCREEN_K" d.k_sigma,
          num "YIELDLAB_PRESCREEN_MIN_GAIN" d.min_gain_db,
          num "YIELDLAB_PRESCREEN_MIN_PM" d.min_pm_deg,
          num "YIELDLAB_PRESCREEN_PASS_BUDGET" ~expected:budget_expected
            ~ok:budget_ok d.pass_budget_frac )
      with
      | Ok k_sigma, Ok min_gain_db, Ok min_pm_deg, Ok pass_budget_frac ->
          Ok { enabled = true; k_sigma; min_gain_db; min_pm_deg; pass_budget_frac }
      | k, g, pm, b -> Error (List.concat_map diags [ k; g; pm; b ]))

(* the raw name, not a parsed backend: Config_lint (C007) reports unknown
   names as preflight errors with the original spelling *)
let solver_of_env () =
  match Sys.getenv_opt "YIELDLAB_SOLVER" with
  | Some v when v <> "" -> v
  | Some _ | None -> "dense"

let of_env () =
  let base =
    match Sys.getenv_opt "YIELDLAB_FAST" with
    | Some v when v <> "" && v <> "0" -> fast_scale
    | Some _ | None -> paper_scale
  in
  match (telemetry_of_env (), prescreen_of_env ()) with
  | Ok telemetry, Ok prescreen ->
      Ok
        {
          base with
          jobs = Yield_exec.Jobs.resolve ();
          solver = solver_of_env ();
          telemetry;
          prescreen;
        }
  | t, p -> Error (diags t @ diags p)

let fingerprint t =
  (* everything the checkpointed stages' determinism depends on; resuming
     under a different fingerprint is refused.  [jobs] and [telemetry] are
     deliberately absent: results are jobs-independent and observability
     never feeds back into them, so a serial checkpoint may be resumed
     under a pool, with or without a trace stream *)
  let base =
    Printf.sprintf "v1;seed=%d;pop=%d;gens=%d;mc=%d;stride=%d;control=%s"
      t.seed t.ga.Yield_ga.Ga.population_size t.ga.Yield_ga.Ga.generations
      t.mc_samples t.front_stride t.control
  in
  (* the prescreen changes which points consume Monte Carlo budget, so it
     is part of the fingerprint — but only when enabled, so every
     pre-existing checkpoint stays resumable *)
  let base =
    if not t.prescreen.enabled then base
    else
      Printf.sprintf "%s;prescreen=k:%g,g:%g,pm:%g,b:%g" base
        t.prescreen.k_sigma t.prescreen.min_gain_db t.prescreen.min_pm_deg
        t.prescreen.pass_budget_frac
  in
  (* the solver changes the numeric kernel the Monte Carlo stage runs
     through, so it is part of the fingerprint — but only when it departs
     from the default, so every pre-existing checkpoint stays resumable.
     A csr sample's Newton starts at its front point's nominal operating
     point, and the tag says so: a csr checkpoint tagged plain
     [solver=csr] holds cold-started points and is refused *)
  match t.solver with
  | "dense" -> base
  | "csr" -> base ^ ";solver=csr;mc-start=nominal"
  | other -> base ^ ";solver=" ^ other

let scale_name t =
  if
    t.ga.Yield_ga.Ga.population_size = paper_scale.ga.Yield_ga.Ga.population_size
    && t.ga.Yield_ga.Ga.generations = paper_scale.ga.Yield_ga.Ga.generations
    && t.mc_samples = paper_scale.mc_samples
  then "paper-scale"
  else "reduced-scale"
