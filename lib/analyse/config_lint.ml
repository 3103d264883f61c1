module Control = Yield_table.Control
module Fault = Yield_resilience.Fault
module Checkpoint = Yield_resilience.Checkpoint

let diag = Diagnostic.make

type view = {
  population : int;
  generations : int;
  mc_samples : int;
  front_stride : int;
  control : string;
  seed : int;
  jobs : int;
  solver : string;
  system_size : int option;
  fingerprint : string;
}

let min_valid_mc_samples = 8

let csr_min_size = 8

let scale_checks v =
  let positive name value =
    if value <= 0 then
      [
        diag ~code:"C001" ~severity:Diagnostic.Error ~subject:name
          (Printf.sprintf "%s must be positive (got %d)" name value);
      ]
    else []
  in
  positive "ga.population_size" v.population
  @ positive "ga.generations" v.generations
  @ positive "mc_samples" v.mc_samples
  @ positive "front_stride" v.front_stride

let mc_checks v =
  if v.mc_samples <= 0 then []
  else if v.mc_samples < min_valid_mc_samples then
    [
      diag ~code:"C002" ~severity:Diagnostic.Error ~subject:"mc_samples"
        (Printf.sprintf
           "mc_samples=%d is below the degradation threshold %d: every front \
            point will be skipped and the variation model is guaranteed to \
            starve"
           v.mc_samples min_valid_mc_samples);
    ]
  else if v.mc_samples < 4 * min_valid_mc_samples then
    [
      diag ~code:"C002" ~severity:Diagnostic.Warning ~subject:"mc_samples"
        (Printf.sprintf
           "mc_samples=%d leaves little headroom over the degradation \
            threshold %d: a modest sample-failure rate will starve the \
            variation model"
           v.mc_samples min_valid_mc_samples);
    ]
  else []

let stride_checks v =
  (* the Pareto front holds at most [population] points; the variation model
     needs at least two analysed points or Flow.run fails as starved *)
  if v.front_stride <= 0 || v.population <= 0 then []
  else begin
    let analysable = 1 + ((v.population - 1) / v.front_stride) in
    if analysable <= 2 then
      [
        diag ~code:"C003" ~severity:Diagnostic.Warning ~subject:"front_stride"
          (Printf.sprintf
             "front_stride=%d analyses at most %d of <=%d front points: the \
              variation model needs more than two to be useful"
             v.front_stride analysable v.population);
      ]
    else []
  end

let jobs_checks v =
  if v.jobs < 1 then
    [
      diag ~code:"C006" ~severity:Diagnostic.Error ~subject:"jobs"
        (Printf.sprintf
           "jobs must be at least 1 (got %d); 1 means the serial code path"
           v.jobs);
    ]
  else begin
    let recommended = Domain.recommended_domain_count () in
    if v.jobs > recommended then
      [
        diag ~code:"C006" ~severity:Diagnostic.Warning ~subject:"jobs"
          (Printf.sprintf
             "jobs=%d exceeds the recommended domain count %d: the extra \
              domains will contend for cores rather than add throughput"
             v.jobs recommended);
      ]
    else []
  end

let solver_checks v =
  let module Linsys = Yield_numeric.Linsys in
  match Linsys.backend_of_string v.solver with
  | None ->
      [
        diag ~code:"C007" ~severity:Diagnostic.Error ~subject:v.solver
          (Printf.sprintf "unknown solver %S (known: %s)" v.solver
             (String.concat ", " Linsys.backend_names));
      ]
  | Some Linsys.Dense -> []
  | Some Linsys.Csr -> begin
      match v.system_size with
      | Some n when n < csr_min_size ->
          [
            diag ~code:"C007" ~severity:Diagnostic.Warning ~subject:v.solver
              (Printf.sprintf
                 "solver=csr on a %d-unknown system (below %d): symbolic \
                  analysis overhead will dominate — dense is faster here"
                 n csr_min_size);
          ]
      | Some _ | None -> []
    end

let control_checks v =
  match Control.parse v.control with
  | _ -> []
  | exception Invalid_argument msg ->
      [ diag ~code:"C004" ~severity:Diagnostic.Error ~subject:v.control msg ]

let checkpoint_checks ?checkpoint_dir ?(resume = false) v =
  match checkpoint_dir with
  | None -> []
  | Some dir ->
      if not (Sys.file_exists dir) then
        [
          diag ~code:"C005" ~severity:Diagnostic.Info ~subject:dir
            "fresh checkpoint directory (will be created)";
        ]
      else begin
        let c = Checkpoint.create ~dir in
        match Checkpoint.check_fingerprint c v.fingerprint with
        | Error msg ->
            [ diag ~code:"C005" ~severity:Diagnostic.Error ~subject:dir msg ]
        | Ok `Resumable when not resume ->
            [
              diag ~code:"C005" ~severity:Diagnostic.Info ~subject:dir
                "checkpoint state present but --resume not given: stale \
                 stage state will be discarded";
            ]
        | Ok (`Resumable | `Fresh) -> []
      end

let check ?checkpoint_dir ?resume v =
  scale_checks v @ mc_checks v @ stride_checks v @ jobs_checks v
  @ solver_checks v @ control_checks v
  @ checkpoint_checks ?checkpoint_dir ?resume v

let never_fires mode =
  match mode with
  | Fault.Rate { p; _ } -> p = 0.
  | Fault.Count _ | Fault.Every _ | Fault.At _ -> false

let check_fault_spec ?known spec =
  match Fault.parse_spec spec with
  | Error msg ->
      [ diag ~code:"F001" ~severity:Diagnostic.Error ~subject:spec msg ]
  | Ok entries ->
      let known = match known with Some k -> k | None -> Fault.known () in
      List.concat_map
        (fun (name, mode) ->
          let unknown =
            if List.mem name known then []
            else
              [
                diag ~code:"F002" ~severity:Diagnostic.Error ~subject:name
                  (Printf.sprintf
                     "unknown injection point %s — the schedule would never \
                      fire (known: %s)"
                     name (String.concat ", " known));
              ]
          in
          let dead =
            if never_fires mode then
              [
                diag ~code:"F003" ~severity:Diagnostic.Warning ~subject:name
                  (Printf.sprintf
                     "schedule %s can never fire"
                     (Fault.mode_to_string mode));
              ]
            else []
          in
          unknown @ dead)
        entries
