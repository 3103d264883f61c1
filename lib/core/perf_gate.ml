module Json = Yield_obs.Json

type tolerance = { frac : float; abs_s : float }

let default_tolerance = { frac = 0.10; abs_s = 0. }

let baseline_tolerance = { frac = 0.10; abs_s = 2.0 }

type finding = { field : string; detail : string }

let to_string f = Printf.sprintf "%s: %s" f.field f.detail

let obj_fields = function Json.Obj kvs -> kvs | _ -> []

(* an absent tolerance object is the documented default; one that is
   present but malformed is a finding, never replaced by a default (the
   comparison below still runs, on the default for that field) *)
let tolerance_of baseline =
  let bad field v what =
    [ { field; detail = Json.to_string v ^ " is not " ^ what } ]
  in
  match Json.member "tolerance" baseline with
  | None -> (default_tolerance, [])
  | Some (Json.Obj _ as t) ->
      let field k fallback =
        match Json.member k t with
        | None -> (fallback, [])
        | Some v -> (
            match Json.number_value v with
            | Some x when x >= 0. -> (x, [])
            | Some _ | None ->
                (fallback, bad ("tolerance." ^ k) v "a non-negative number"))
      in
      let frac, bad_frac = field "frac" default_tolerance.frac in
      let abs_s, bad_abs = field "abs_s" default_tolerance.abs_s in
      ({ frac; abs_s }, bad_frac @ bad_abs)
  | Some v -> (default_tolerance, bad "tolerance" v "an object")

(* every baseline key must exist in the bench and vice versa: a counter or
   stage appearing or vanishing is drift the baseline must acknowledge,
   not something to silently skip *)
let identity ~field ~base ~bench compare_value =
  let base = obj_fields base and bench = obj_fields bench in
  let missing =
    List.filter_map
      (fun (k, bv) ->
        match List.assoc_opt k bench with
        | None ->
            Some
              {
                field = field ^ "." ^ k;
                detail = "in the baseline but missing from the bench run";
              }
        | Some av -> compare_value k bv av)
      base
  in
  let extra =
    List.filter_map
      (fun (k, _) ->
        if List.mem_assoc k base then None
        else
          Some
            {
              field = field ^ "." ^ k;
              detail =
                "new in the bench run but absent from the baseline (refresh \
                 it: bench --write-baseline)";
            })
      bench
  in
  missing @ extra

let check ~baseline ~bench =
  let tol, bad_tolerance = tolerance_of baseline in
  let member name j = Json.member name j in
  (* run identity: comparing different scales or pool sizes is meaningless *)
  let run_identity =
    List.filter_map
      (fun key ->
        match (member key baseline, member key bench) with
        | Some a, Some b when a <> b ->
            Some
              {
                field = key;
                detail =
                  Printf.sprintf "baseline %s vs bench %s" (Json.to_string a)
                    (Json.to_string b);
              }
        | Some _, None ->
            Some { field = key; detail = "missing from the bench run" }
        | _ -> None)
      [ "scale"; "jobs" ]
  in
  let section key = function
    | Some j -> member key j |> Option.value ~default:(Json.Obj [])
    | None -> Json.Obj []
  in
  let timings =
    identity ~field:"stage_s"
      ~base:(section "stage_s" (Some baseline))
      ~bench:(section "stage_s" (Some bench))
      (fun k bv av ->
        match (Json.number_value bv, Json.number_value av) with
        | Some base_s, Some actual_s ->
            let limit = (base_s *. (1. +. tol.frac)) +. tol.abs_s in
            if actual_s > limit then
              Some
                {
                  field = "stage_s." ^ k;
                  detail =
                    Printf.sprintf
                      "%.3f s vs baseline %.3f s (limit %.3f s = base x %g + \
                       %g s)"
                      actual_s base_s limit (1. +. tol.frac) tol.abs_s;
                }
            else None
        | _ -> Some { field = "stage_s." ^ k; detail = "not a number" })
  in
  let exact field_name base bench =
    identity ~field:field_name ~base ~bench (fun k bv av ->
        if bv = av then None
        else
          Some
            {
              field = field_name ^ "." ^ k;
              detail =
                Printf.sprintf "baseline %s vs bench %s" (Json.to_string bv)
                  (Json.to_string av);
            })
  in
  let sim_counts =
    exact "sim_counts"
      (section "sim_counts" (Some baseline))
      (section "sim_counts" (Some bench))
  in
  let counters =
    exact "counters"
      (section "counters" (Some baseline))
      (section "counters" (Some bench))
  in
  let alloc =
    identity ~field:"alloc"
      ~base:(section "alloc" (Some baseline))
      ~bench:(section "alloc" (Some bench))
      (fun k bv av ->
        match (Json.number_value bv, Json.number_value av) with
        | Some base, Some actual ->
            let limit = base *. (1. +. tol.frac) in
            if actual > limit then
              Some
                {
                  field = "alloc." ^ k;
                  detail =
                    Printf.sprintf "%.1f vs baseline %.1f (limit %.1f = base x %g)"
                      actual base limit (1. +. tol.frac);
                }
            else None
        | _ -> Some { field = "alloc." ^ k; detail = "not a number" })
  in
  bad_tolerance @ run_identity @ timings @ sim_counts @ counters @ alloc

let baseline_of_bench ?(tolerance = baseline_tolerance) bench =
  let pick k = match Json.member k bench with Some v -> [ (k, v) ] | None -> [] in
  Json.Obj
    ([ ("schema", Json.String "yieldlab-bench-baseline/v1") ]
    @ pick "scale" @ pick "jobs" @ pick "cores"
    @ [
        ( "tolerance",
          Json.Obj
            [
              ("frac", Json.Float tolerance.frac);
              ("abs_s", Json.Float tolerance.abs_s);
            ] );
      ]
    @ pick "stage_s" @ pick "sim_counts" @ pick "counters" @ pick "alloc")
