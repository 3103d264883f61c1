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

(* Newton iterations [i], [i + 1], ... of one run in the borrowed
   workspace [w], iterating in [w.x]; [assemble w x] writes the system
   linearised at [x] into [w.rs] and [w.rhs].  A top-level function, so
   a run allocates no closure of its own and an iteration nothing.
   Returns the run's factorisation count, negated when it fails: an int,
   so the count costs no allocation.  A converged run leaves its solution
   in [w.x]. *)
let rec iterate_from (w : Mna.dc_work) options ~n_nodes assemble i =
  if i >= options.max_iterations then -i
  else begin
    let x = w.Mna.x and x_new = w.Mna.x_new in
    assemble w x;
    match w.Mna.rs.Linsys.solve_into w.Mna.rhs x_new with
    | exception Lu.Singular _ -> -(i + 1)
    | () ->
        let delta = ref 0. and finite = ref true in
        (* the step limits as computed floats, bit for bit [-. max_step]
           and [max_step] (a negation flips only the sign): handed the
           record's boxed field, the inlined Float.min would box [dk]
           whenever [dk] is its answer *)
        let lo = -.options.max_step in
        let hi = -.lo in
        for k = 0 to Array.length x - 1 do
          let dk = x_new.(k) -. x.(k) in
          (* clamp only node voltages; branch currents may move freely *)
          let dk_clamped =
            if k < n_nodes then Float.max lo (Float.min hi dk) else dk
          in
          delta := Float.max !delta (Float.abs dk);
          let xk = x.(k) +. dk_clamped in
          x.(k) <- xk;
          if not (Float.is_finite xk) then finite := false
        done;
        if !delta < options.vtol && Float.is_finite !delta then i + 1
        else if not !finite then -(i + 1)
        else iterate_from w options ~n_nodes assemble (i + 1)
  end

(* One damped-Newton run from [x0], which may be [w.x] itself to go on
   from the previous run's answer. *)
let iterate (w : Mna.dc_work) options ~n_nodes ~x0 assemble =
  if x0 != w.Mna.x then Array.blit x0 0 w.Mna.x 0 (Array.length x0);
  iterate_from w options ~n_nodes assemble 0

(* {!iterate} of the DC system at fixed gmin and source scaling, adding
   its count to [dcop.iterations].  The assembly's arguments wait in the
   workspace, so the run passes it no closure. *)
let newton (w : Mna.dc_work) ?models ?sizes circuit layout options
    ~source_scale ~gmin ~x0 =
  Mna.aim_dc w ?models ?sizes circuit ~source_scale ~gmin;
  let factored =
    iterate w options ~n_nodes:(Mna.n_nodes layout) ~x0 Mna.assemble_dc
  in
  Metrics.add c_iterations (abs factored);
  factored

(* What an attempt answers, an int so that it costs no allocation: the
   iterations of the run that converged, or one of these failures, from
   which [error_of] builds the error. *)
let injected = 0 (* the [dcop.solve] fault fired *)

let exhausted = -1 (* every homotopy stage failed *)

let singular = -2 (* the topology is structurally singular *)

let error_of sys code =
  match Mna.sys_dc_issues sys with
  | issue :: _ when code = singular ->
      Singular_system (Topology.issue_to_string issue)
  | _ ->
      No_convergence
        {
          attempts =
            (if code = injected then [ "injected-fault" ]
             else [ "newton"; "gmin-stepping"; "source-stepping" ]);
        }

(* the chain's end after [stages] of its stages ran *)
let converged ~stages iterations =
  Metrics.observe_int h_newton_iterations iterations;
  Metrics.observe_int h_recovery_attempts stages;
  iterations

let no_convergence ~stages code =
  Metrics.incr c_convergence_failures;
  Metrics.observe_int h_recovery_attempts stages;
  code

let rec place_nodesets x0 = function
  | [] -> ()
  | (node, v) :: rest ->
      if node <> Device.ground then x0.(node - 1) <- v;
      place_nodesets x0 rest

(* The fallbacks after a failed Newton stage, each stage starting where
   the previous run left [w.x], the first at the guess in [w.x0]: gmin
   stepping (converge a heavily damped system, then relax), then source
   stepping (ramp the supplies).  The recovery path: its closures and
   step lists are allocated only here. *)
let homotopy (w : Mna.dc_work) ~options ?models ?sizes circuit layout =
  let x0 = w.Mna.x0 in
  let run ~source_scale ~gmin from =
    newton w ?models ?sizes circuit layout options ~source_scale ~gmin ~x0:from
  in
  let steps = [ 1e-3; 1e-5; 1e-7; 1e-9; 1e-11; options.gmin ] in
  let gmin_steps = ref 0 in
  let rec gmin_walk from = function
    | [] -> run ~source_scale:1. ~gmin:options.gmin from
    | gmin :: rest ->
        incr gmin_steps;
        if run ~source_scale:1. ~gmin from > 0 then gmin_walk w.Mna.x rest
        else 0
  in
  let gmin_result = if Fault.fire fp_gmin then 0 else gmin_walk x0 steps in
  Metrics.observe_int h_gmin_steps !gmin_steps;
  if gmin_result > 0 then converged ~stages:2 gmin_result
  else begin
    let scales = [ 0.05; 0.1; 0.2; 0.4; 0.6; 0.8; 0.9; 1.0 ] in
    let rec ramp from = function
      | [] -> run ~source_scale:1. ~gmin:options.gmin from
      | scale :: rest ->
          if run ~source_scale:scale ~gmin:options.gmin from > 0 then
            ramp w.Mna.x rest
          else 0
    in
    let ramped = ramp x0 scales in
    if ramped > 0 then converged ~stages:3 ramped
    else no_convergence ~stages:3 exhausted
  end

(* The homotopy chain in the borrowed workspace [w].  Each stage starts
   where the chain without a workspace started it: at the guess in
   [w.x0], which no run writes, or at the answer the previous run left in
   [w.x].  A converged chain answers the iterations of the run that
   converged, its answer left in [w.x]; the Newton stage allocates
   nothing. *)
let chain (w : Mna.dc_work) ~options ?x0_jitter ?start ?models ?sizes circuit
    layout =
  let x0 = w.Mna.x0 in
  Array.fill x0 0 (Array.length x0) 0.;
  place_nodesets x0 (Circuit.nodesets circuit);
  (match x0_jitter with
  | None -> ()
  | Some jitter ->
      for k = 0 to Array.length x0 - 1 do
        x0.(k) <- x0.(k) +. jitter k
      done);
  if Fault.fire fp_solve then no_convergence ~stages:1 injected
  else begin
    (* the Newton stage: from [start] when there is one, then, if that run
       does not converge, from the nodeset guess exactly as without a
       start; one fault check covers both runs *)
    let newton_stage =
      if Fault.fire fp_newton then 0
      else
        match start with
        | None ->
            newton w ?models ?sizes circuit layout options ~source_scale:1.
              ~gmin:options.gmin ~x0
        | Some start ->
            Metrics.add c_warm_starts 1;
            let warm =
              newton w ?models ?sizes circuit layout options ~source_scale:1.
                ~gmin:options.gmin ~x0:start
            in
            if warm > 0 then warm
            else begin
              Metrics.add c_warm_fallbacks 1;
              newton w ?models ?sizes circuit layout options ~source_scale:1.
                ~gmin:options.gmin ~x0
            end
    in
    if newton_stage > 0 then converged ~stages:1 newton_stage
    else homotopy w ~options ?models ?sizes circuit layout
  end

(* One solve in [w]: the structural check, then the chain.  A
   structurally singular circuit fails as Permanent before anything is
   factored: no gmin or homotopy can make its answer meaningful. *)
let attempt w ~options ?x0_jitter ?start ?models ?sizes sys circuit =
  match Mna.sys_dc_issues sys with
  | _ :: _ ->
      Metrics.incr c_convergence_failures;
      singular
  | [] ->
      chain w ~options ?x0_jitter ?start ?models ?sizes circuit
        (Mna.sys_layout sys)

let check_start ?start sys =
  match start with
  | Some start when Array.length start <> Mna.size (Mna.sys_layout sys) ->
      invalid_arg "Dcop.solve: start is not of the system's size"
  | Some _ | None -> ()

let checked_sys ?start sys circuit =
  let sys = Mna.default_sys sys circuit in
  check_start ?start sys;
  sys

(* the operating point of a converged attempt: the answer copied out of
   [w], and every MOSFET's operating point at it *)
let finish (w : Mna.dc_work) ?models circuit sys code =
  if code > 0 then
    Ok
      {
        x = Array.copy w.Mna.x;
        layout = Mna.sys_layout sys;
        mos_ops = Mna.mos_operating_points ?models circuit ~x:w.Mna.x;
        iterations = code;
      }
  else Error (error_of sys code)

let solve ?(options = default_options) ?x0_jitter ?start ?sys ?models circuit
    =
  let sys = checked_sys ?start sys circuit in
  Mna.with_dc sys (fun w ->
      finish w ?models circuit sys
        (attempt w ~options ?x0_jitter ?start ?models sys circuit))

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

let transient = Some Retry.Transient

let permanent = Some Retry.Permanent

(* Attempt [a] of the retry policy in [w] and those after it: the first
   from [start], the jittered ones as without it.  The policy's loop,
   run here without a closure (Retry.settle decides and counts), so a
   call whose first attempt converges allocates nothing; only a deadline
   reads the clock. *)
let rec retried (w : Mna.dc_work) ~options ?deadline_s ?start ?models ?sizes
    sys circuit a =
  let started_s =
    match deadline_s with None -> 0. | Some _ -> Yield_obs.Clock.now_s ()
  in
  let code =
    if a <= 1 then attempt w ~options ?start ?models ?sizes sys circuit
    else
      attempt w ~options ~x0_jitter:(retry_jitter a) ?models ?sizes sys circuit
  in
  let failure =
    if code > 0 then None else if code = singular then permanent else transient
  in
  if Retry.settle ?deadline_s retry_policy ~attempt:a ~started_s failure then
    retried w ~options ?deadline_s ?start ?models ?sizes sys circuit (a + 1)
  else code

(* [budget_s] as the absolute deadline Retry takes *)
let deadline = function
  | None -> None
  | Some b -> Some (Yield_obs.Clock.now_s () +. b)

let solve_with_retry ?(options = default_options) ?budget_s ?start ?sys
    ?models circuit =
  let sys = checked_sys ?start sys circuit in
  Mna.with_dc sys (fun w ->
      finish w ?models circuit sys
        (retried w ~options ?deadline_s:(deadline budget_s) ?start ?models sys
           circuit 1))

(* [w] back on the shelf, and [e] raised on *)
let give_back w e =
  let bt = Printexc.get_raw_backtrace () in
  Mna.return_dc w;
  Printexc.raise_with_backtrace e bt

let with_solution ?(options = default_options) ?budget_s ?start ~sys ?models
    ?sizes circuit k =
  check_start ?start sys;
  let w = Mna.borrow_dc sys in
  match
    retried w ~options ?deadline_s:(deadline budget_s) ?start ?models ?sizes
      sys circuit 1
  with
  | exception e -> give_back w e
  | code when code > 0 -> (
      match k w code with
      | exception e -> give_back w e
      | v ->
          Mna.return_dc w;
          Ok v)
  | code ->
      Mna.return_dc w;
      Error (error_of sys code)

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
