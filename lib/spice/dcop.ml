module Vec = Yield_numeric.Vec
module Lu = Yield_numeric.Lu
module Linsys = Yield_numeric.Linsys
module Metrics = Yield_obs.Metrics
module Fault = Yield_resilience.Fault
module Retry = Yield_resilience.Retry
module Rng = Yield_stats.Rng

(* static handles: [solve] sits under every Monte Carlo sample, so the
   instruments are resolved once and each record is O(1) *)
let h_newton_iterations = Metrics.histogram "dcop.newton_iterations"

let h_gmin_steps = Metrics.histogram "dcop.gmin_steps"

let h_recovery_attempts = Metrics.histogram "dcop.recovery_attempts"

let c_convergence_failures = Metrics.counter "dcop.convergence_failures"

(* every Newton iteration of every run, converged or not: one real
   factorisation each, the DC counterpart of [ac.points] *)
let c_iterations = Metrics.counter "dcop.iterations"

(* Newton runs begun at a caller's [start], and those of them that did not
   converge and went on to the nodeset chain *)
let c_warm_starts = Metrics.counter "dcop.warm_starts"

let c_warm_fallbacks = Metrics.counter "dcop.warm_fallbacks"

(* injection points: [dcop.solve] fails the whole solve (a transient
   non-convergence the retry layer can absorb); [dcop.newton] / [dcop.gmin]
   fail one homotopy stage, forcing the next fallback in the chain *)
let fp_solve = Fault.point "dcop.solve"

let fp_newton = Fault.point "dcop.newton"

let fp_gmin = Fault.point "dcop.gmin"

type t = {
  x : Vec.t;
  layout : Mna.layout;
  mos_ops : (string * Mosfet.op) list;
  iterations : int;
}

type options = {
  max_iterations : int;
  vtol : float;
  max_step : float;
  gmin : float;
}

let default_options =
  { max_iterations = 150; vtol = 1e-9; max_step = 0.5; gmin = 1e-12 }

type error =
  | No_convergence of { attempts : string list }
  | Singular_system of string

let error_to_string = function
  | No_convergence { attempts } ->
      "dcop: no convergence after " ^ String.concat ", " attempts
  | Singular_system what -> "dcop: singular system in " ^ what

(* One damped-Newton run at fixed gmin and source scaling.  Returns the
   solution and iteration count, or None on failure, and adds the run's
   factorisations to [dcop.iterations].  [rs] is the solver workspace
   reused across iterations (a dense workspace reproduces the historical
   fresh-matrix-per-iteration path byte-for-byte). *)
let newton rs ?models circuit layout options ~source_scale ~gmin ~x0 =
  let n = Mna.size layout in
  let x = Array.copy x0 in
  (* the run's factorisation count, negated when it fails: an int, so the
     count costs no allocation *)
  let rec iterate i =
    if i >= options.max_iterations then -i
    else begin
      let rhs =
        Mna.assemble_dc_into rs ?models circuit layout ~x ~source_scale ~gmin
      in
      match rs.Linsys.solve rhs with
      | exception Lu.Singular _ -> -(i + 1)
      | x_new ->
          let delta = ref 0. in
          for k = 0 to n - 1 do
            let dk = x_new.(k) -. x.(k) in
            let node_unknown = k < Mna.n_nodes layout in
            (* clamp only node voltages; branch currents may move freely *)
            let dk_clamped =
              if node_unknown then
                Float.max (-.options.max_step) (Float.min options.max_step dk)
              else dk
            in
            delta := Float.max !delta (Float.abs dk);
            x.(k) <- x.(k) +. dk_clamped
          done;
          if
            !delta < options.vtol
            && Float.is_finite !delta
          then i + 1
          else if not (Array.for_all Float.is_finite x) then -(i + 1)
          else iterate (i + 1)
    end
  in
  let factored = iterate 0 in
  Metrics.add c_iterations (abs factored);
  if factored > 0 then Some (x, factored) else None

let initial_guess circuit layout =
  let x = Vec.create (Mna.size layout) in
  List.iter
    (fun (node, v) -> if node <> Device.ground then x.(node - 1) <- v)
    (Circuit.nodesets circuit);
  x

let solve ?(options = default_options) ?x0_jitter ?start ?sys ?models circuit
    =
  let sys = Mna.default_sys sys circuit in
  (match start with
  | Some start when Array.length start <> Mna.size (Mna.sys_layout sys) ->
      invalid_arg "Dcop.solve: start is not of the system's size"
  | Some _ | None -> ());
  match Mna.sys_dc_issues sys with
  | issue :: _ ->
      (* structurally singular: no gmin or homotopy can make the answer
         meaningful, so fail as Permanent before factoring anything *)
      Metrics.incr c_convergence_failures;
      Error (Singular_system (Topology.issue_to_string issue))
  | [] ->
  let layout = Mna.sys_layout sys in
  (* per-call numeric workspace: the compiled session is shared across
     domains, the mutable assembly/factor state is not *)
  let newton = newton (Mna.sys_real sys) ?models in
  let x0 = initial_guess circuit layout in
  (match x0_jitter with
  | None -> ()
  | Some jitter -> Array.iteri (fun k v -> x0.(k) <- v +. jitter k) x0);
  let attempts = ref [] in
  let note what = attempts := what :: !attempts in
  let finish (x, iterations) =
    Metrics.observe h_newton_iterations (float_of_int iterations);
    Metrics.observe h_recovery_attempts (float_of_int (List.length !attempts));
    Ok
      {
        x;
        layout;
        mos_ops = Mna.mos_operating_points ?models circuit ~x;
        iterations;
      }
  in
  let no_convergence () =
    Metrics.incr c_convergence_failures;
    Metrics.observe h_recovery_attempts (float_of_int (List.length !attempts));
    Error (No_convergence { attempts = List.rev !attempts })
  in
  if Fault.fire fp_solve then begin
    note "injected-fault";
    no_convergence ()
  end
  else begin
  note "newton";
  (* the Newton stage: from [start] when there is one, then, if that run
     does not converge, from the nodeset guess exactly as without a start;
     one fault check covers both runs *)
  match
    if Fault.fire fp_newton then None
    else
      match start with
      | None ->
          newton circuit layout options ~source_scale:1. ~gmin:options.gmin ~x0
      | Some start -> (
          Metrics.add c_warm_starts 1;
          match
            newton circuit layout options ~source_scale:1. ~gmin:options.gmin
              ~x0:start
          with
          | Some _ as warm -> warm
          | None ->
              Metrics.add c_warm_fallbacks 1;
              newton circuit layout options ~source_scale:1. ~gmin:options.gmin
                ~x0)
  with
  | Some result -> finish result
  | None -> begin
      (* gmin stepping: converge a heavily damped system, then relax *)
      note "gmin-stepping";
      let steps = [ 1e-3; 1e-5; 1e-7; 1e-9; 1e-11; options.gmin ] in
      let gmin_steps = ref 0 in
      let rec gmin_walk x = function
        | [] -> Some x
        | gmin :: rest -> begin
            incr gmin_steps;
            match newton circuit layout options ~source_scale:1. ~gmin ~x0:x with
            | Some (x', _) -> gmin_walk x' rest
            | None -> None
          end
      in
      let gmin_result =
        if Fault.fire fp_gmin then None
        else
          match gmin_walk x0 steps with
          | Some x ->
              newton circuit layout options ~source_scale:1. ~gmin:options.gmin
                ~x0:x
          | None -> None
      in
      Metrics.observe h_gmin_steps (float_of_int !gmin_steps);
      match gmin_result with
      | Some result -> finish result
      | None -> begin
          (* source stepping: ramp the supplies *)
          note "source-stepping";
          let scales = [ 0.05; 0.1; 0.2; 0.4; 0.6; 0.8; 0.9; 1.0 ] in
          let rec ramp x = function
            | [] -> Some x
            | scale :: rest -> begin
                match
                  newton circuit layout options ~source_scale:scale
                    ~gmin:options.gmin ~x0:x
                with
                | Some (x', _) -> ramp x' rest
                | None -> None
              end
          in
          match ramp x0 scales with
          | Some x -> begin
              match
                newton circuit layout options ~source_scale:1. ~gmin:options.gmin
                  ~x0:x
              with
              | Some result -> finish result
              | None -> no_convergence ()
            end
          | None -> no_convergence ()
        end
    end
  end

let classify_error = function
  | No_convergence _ -> Retry.Transient
  | Singular_system _ -> Retry.Permanent

let retry_policy = Retry.policy "dcop.solve"

(* deterministic per-attempt perturbation of the initial guess: nudging
   the starting point is often enough to escape a basin where damped
   Newton stalls *)
let retry_jitter attempt =
  let rng = Rng.create (0x5eed + attempt) in
  fun _k -> Rng.normal rng ~mean:0. ~sigma:0.05

let solve_with_retry ?options ?budget_s ?start ?sys ?models circuit =
  let sys = Mna.default_sys sys circuit in
  let deadline_s =
    Option.map (fun b -> Yield_obs.Clock.now_s () +. b) budget_s
  in
  (* without a start the attempt closure captures what it always did, so
     a cold solve allocates no extra word *)
  Retry.with_retries ?deadline_s retry_policy ~classify:classify_error
    (match start with
    | None ->
        fun ~attempt ->
          if attempt <= 1 then solve ?options ~sys ?models circuit
          else
            solve ?options ~x0_jitter:(retry_jitter attempt) ~sys ?models
              circuit
    | Some _ ->
        fun ~attempt ->
          if attempt <= 1 then solve ?options ?start ~sys ?models circuit
          else
            solve ?options ~x0_jitter:(retry_jitter attempt) ~sys ?models
              circuit)

let voltage t node = Mna.voltage t.x node

let voltage_by_name t circuit name = voltage t (Circuit.node circuit name)

let branch_current t name = t.x.(Mna.branch_index t.layout name)

let mos_op t name = List.assoc name t.mos_ops

let pp circuit ppf t =
  Format.fprintf ppf "@[<v>operating point (%d Newton iterations)@," t.iterations;
  for n = 1 to Mna.n_nodes t.layout do
    match Circuit.node_name circuit n with
    | name -> Format.fprintf ppf "  v(%s) = %.6g V@," name (voltage t n)
    | exception Not_found -> ()
  done;
  List.iter
    (fun (name, op) ->
      Format.fprintf ppf
        "  %s: %s ids=%.4g gm=%.4g gds=%.4g vgs=%.4g vds=%.4g vdsat=%.4g@,"
        name
        (Mosfet.region_to_string op.Mosfet.region)
        op.Mosfet.ids op.Mosfet.gm op.Mosfet.gds op.Mosfet.vgs op.Mosfet.vds
        op.Mosfet.vdsat)
    t.mos_ops;
  Format.fprintf ppf "@]"
