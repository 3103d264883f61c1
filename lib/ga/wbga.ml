module Metrics = Yield_obs.Metrics
module Json = Yield_obs.Json
module Codec = Yield_resilience.Codec
module Pool = Yield_exec.Pool

let c_evaluations = Metrics.counter "wbga.evaluations"

let c_infeasible = Metrics.counter "wbga.infeasible"

type objective = { name : string; maximise : bool }

type entry = {
  params : float array;
  objectives : float array;
  weights : float array;
  fitness : float;
}

type result = {
  archive : entry array;
  front : entry array;
  evaluations : int;
  failures : int;
  history : float array;
}

type snapshot = {
  ga : entry option Ga.snapshot;
  snap_failures : int;
  normalizer : Fitness.state;
}

let run ?(config = Ga.default_config) ?pool ?checkpoint ?resume ~param_ranges
    ~objectives ~rng ~evaluate () =
  let n_obj = Array.length objectives in
  if n_obj = 0 then invalid_arg "Wbga.run: no objectives";
  let encoding = Genome.encoding param_ranges ~n_weights:n_obj in
  let normalizer = Fitness.create n_obj in
  let failures = ref 0 in
  let prior_evaluations = ref 0 in
  let ga_resume =
    match resume with
    | None -> None
    | Some s ->
        Fitness.restore normalizer s.normalizer;
        failures := s.snap_failures;
        prior_evaluations := s.ga.Ga.snap_evaluations;
        Some s.ga
  in
  (* orient so that larger is always better inside the normaliser *)
  let oriented raw =
    Array.mapi
      (fun j v -> if objectives.(j).maximise then v else -.v)
      raw
  in
  let pool = match pool with Some p -> p | None -> Pool.create ~jobs:1 () in
  (* Only the RNG-free [evaluate] calls go on the pool; everything
     order-sensitive — normaliser bounds, the failure count, archive
     updates — runs in the deterministic in-order pass below, so the
     result is bit-identical at any [jobs]. *)
  let score population =
    let params = Array.map (Genome.params encoding) population in
    let raws =
      Pool.map pool ~n:(Array.length params) (fun i -> evaluate params.(i))
    in
    let raw_results =
      Array.map2
        (fun params raw ->
          match raw with
          | Some raw when Array.length raw = n_obj ->
              let o = oriented raw in
              Fitness.observe normalizer o;
              Some (params, raw, o)
          | Some _ -> invalid_arg "Wbga.run: evaluate returned wrong arity"
          | None ->
              incr failures;
              None)
        params raws
    in
    (* second pass: fitness under the bounds updated by the whole batch *)
    Array.map2
      (fun genome result ->
        let weights = Genome.weights encoding genome in
        match result with
        | Some (params, raw, o) ->
            let fitness = Fitness.weighted_sum normalizer ~weights o in
            (Some { params; objectives = raw; weights; fitness }, fitness)
        | None -> (None, neg_infinity))
      population raw_results
  in
  let on_generation =
    Option.map
      (fun hook ga_snap ->
        hook
          {
            ga = ga_snap;
            snap_failures = !failures;
            normalizer = Fitness.save normalizer;
          })
      checkpoint
  in
  let ga_result = Ga.run ?on_generation ?resume:ga_resume config encoding rng ~score in
  (* the registry counts work done by this process: a resumed run only adds
     its own evaluations, while [result.evaluations] stays cumulative *)
  Metrics.add c_evaluations (ga_result.Ga.evaluations - !prior_evaluations);
  Metrics.add c_infeasible !failures;
  let archive =
    Array.of_list
      (List.filter_map
         (fun (e : _ Ga.evaluated) -> e.Ga.payload)
         (Array.to_list ga_result.Ga.archive))
  in
  let points = Array.map (fun e -> e.objectives) archive in
  let maximise = Array.map (fun o -> o.maximise) objectives in
  let front_indices =
    if n_obj = 2 && Array.for_all Fun.id maximise then Pareto.front_2d points
    else Pareto.non_dominated ~maximise points
  in
  let front = Array.of_list (List.map (fun i -> archive.(i)) front_indices) in
  Array.sort (fun a b -> Float.compare a.objectives.(0) b.objectives.(0)) front;
  {
    archive;
    front;
    evaluations = ga_result.Ga.evaluations;
    failures = !failures;
    history = ga_result.Ga.history;
  }

(* ---------- checkpoint serialisation (bit-exact: Codec floats) ---------- *)

let entry_to_json e =
  Json.Obj
    [
      ("params", Codec.float_array e.params);
      ("objectives", Codec.float_array e.objectives);
      ("weights", Codec.float_array e.weights);
      ("fitness", Codec.float_ e.fitness);
    ]

let entry_of_json j =
  {
    params = Codec.to_float_array (Codec.member "params" j);
    objectives = Codec.to_float_array (Codec.member "objectives" j);
    weights = Codec.to_float_array (Codec.member "weights" j);
    fitness = Codec.to_float (Codec.member "fitness" j);
  }

let evaluated_to_json (e : entry option Ga.evaluated) =
  Json.Obj
    [
      ("genome", Codec.float_array e.Ga.genome);
      ("fitness", Codec.float_ e.Ga.fitness);
      ("entry", Codec.option entry_to_json e.Ga.payload);
    ]

let evaluated_of_json j =
  {
    Ga.genome = Codec.to_float_array (Codec.member "genome" j);
    fitness = Codec.to_float (Codec.member "fitness" j);
    payload = Codec.to_option entry_of_json (Codec.member "entry" j);
  }

let snapshot_to_json s =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("next_generation", Codec.int_ s.ga.Ga.next_generation);
      ("evaluations", Codec.int_ s.ga.Ga.snap_evaluations);
      ("failures", Codec.int_ s.snap_failures);
      ("rng", Codec.rng_state s.ga.Ga.rng_state);
      ("history", Codec.float_array s.ga.Ga.snap_history);
      ("population", Codec.array Codec.float_array s.ga.Ga.population);
      ("archive", Codec.list evaluated_to_json s.ga.Ga.archive_rev);
      ("best", Codec.option evaluated_to_json s.ga.Ga.snap_best);
      ( "normalizer",
        Json.Obj
          [
            ("mins", Codec.float_array s.normalizer.Fitness.mins);
            ("maxs", Codec.float_array s.normalizer.Fitness.maxs);
            ("seen", Codec.int_ s.normalizer.Fitness.seen);
          ] );
    ]

let snapshot_of_json j =
  match
    let norm = Codec.member "normalizer" j in
    {
      ga =
        {
          Ga.next_generation = Codec.to_int (Codec.member "next_generation" j);
          population =
            Codec.to_array Codec.to_float_array (Codec.member "population" j);
          archive_rev = Codec.to_list evaluated_of_json (Codec.member "archive" j);
          snap_best = Codec.to_option evaluated_of_json (Codec.member "best" j);
          snap_history = Codec.to_float_array (Codec.member "history" j);
          snap_evaluations = Codec.to_int (Codec.member "evaluations" j);
          rng_state = Codec.to_rng_state (Codec.member "rng" j);
        };
      snap_failures = Codec.to_int (Codec.member "failures" j);
      normalizer =
        {
          Fitness.mins = Codec.to_float_array (Codec.member "mins" norm);
          maxs = Codec.to_float_array (Codec.member "maxs" norm);
          seen = Codec.to_int (Codec.member "seen" norm);
        };
    }
  with
  | s -> Ok s
  | exception Codec.Decode msg -> Error ("Wbga.snapshot_of_json: " ^ msg)

let result_to_json r =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("evaluations", Codec.int_ r.evaluations);
      ("failures", Codec.int_ r.failures);
      ("history", Codec.float_array r.history);
      ("archive", Codec.array entry_to_json r.archive);
      ("front", Codec.array entry_to_json r.front);
    ]

let result_of_json j =
  match
    {
      archive = Codec.to_array entry_of_json (Codec.member "archive" j);
      front = Codec.to_array entry_of_json (Codec.member "front" j);
      evaluations = Codec.to_int (Codec.member "evaluations" j);
      failures = Codec.to_int (Codec.member "failures" j);
      history = Codec.to_float_array (Codec.member "history" j);
    }
  with
  | r -> Ok r
  | exception Codec.Decode msg -> Error ("Wbga.result_of_json: " ^ msg)
