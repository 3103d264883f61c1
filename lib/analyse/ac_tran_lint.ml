module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Topology = Yield_spice.Topology

let diag = Diagnostic.make

(* conservative bound on any node-to-node bias voltage: nothing in the
   supported netlists runs above a 5 V rail, and the bound only has to cap
   the MOS overdrive used for the channel-conductance upper limit *)
let supply_bound = 5.0

(* ---------- shared circuit views ---------- *)

let known_node_names circuit =
  let seen = Hashtbl.create 32 in
  List.iter (fun g -> Hashtbl.replace seen g ()) [ "0"; "gnd"; "GND" ];
  Array.iter
    (fun dev ->
      List.iter
        (fun n -> Hashtbl.replace seen (Circuit.node_name circuit n) ())
        (Device.nodes dev))
    (Circuit.devices circuit);
  seen

let is_ground_name name = name = "0" || name = "gnd" || name = "GND"

let ac_excited_sources circuit =
  Array.to_list (Circuit.devices circuit)
  |> List.filter_map (fun dev ->
         match dev with
         | Device.Vsource { name; npos; nneg; ac; _ }
         | Device.Isource { name; npos; nneg; ac; _ }
           when ac <> 0. ->
             Some (name, npos, nneg)
         | _ -> None)

(* AC signal-flow graph over non-ground nodes: resistors, capacitors,
   voltage sources and every MOS coupling path carry signal both ways; a
   VCCS carries it only from its control pair to its output pair.  Edges
   touching ground are dropped — ground is the reference, not a signal
   path. *)
let signal_edges circuit =
  let open Interval.Fixpoint in
  let push acc (a, b) =
    if a = Device.ground || b = Device.ground then acc
    else edge a b :: edge b a :: acc
  in
  let push_dir acc (a, b) =
    if a = Device.ground || b = Device.ground then acc else edge a b :: acc
  in
  Array.fold_left
    (fun acc dev ->
      match dev with
      | Device.Resistor { n1; n2; _ } | Device.Capacitor { n1; n2; _ } ->
          push acc (n1, n2)
      | Device.Vsource { npos; nneg; _ } -> push acc (npos, nneg)
      | Device.Mosfet { d; g; s; b; _ } ->
          List.fold_left push acc [ (d, s); (g, d); (g, s); (b, d); (b, s) ]
      | Device.Vccs { out_p; out_n; in_p; in_n; _ } ->
          List.fold_left push_dir acc
            [ (in_p, out_p); (in_p, out_n); (in_n, out_p); (in_n, out_n) ]
      | Device.Isource _ -> acc)
    [] (Circuit.devices circuit)

(* ---------- interval time-constant bounds ---------- *)

(* Per-component RC/gm-C time-constant enclosures.

   Each non-ground node accumulates an interval of capacitance-to-anywhere
   and an interval of conductance-to-anywhere; nodes tied together by a
   voltage source share one voltage and are merged into a single component
   (a node pinned to ground by a source has no time constant of its own and
   its component is skipped).  Explicit R and C values are exact; MOS
   contributions are sound upper bounds with 0 as the lower bound, since a
   device in cutoff contributes nothing:

   - gate capacitance   <= cox*w*l + (cgso + cgdo)*w
   - drain/source cap   <= overlap + zero-bias junction (cj*w*ext bottom
                           plate, cjsw sidewall around the w x ext diffusion)
   - channel conductance <= kp*(w/l)*supply_bound (triode bound at the
                           largest overdrive any supported supply allows)

   tau = C/G per component, outward-rounded, so [tau.lo, tau.hi] encloses
   every achievable time constant of that component. *)
let time_constants circuit =
  let n = Circuit.node_count circuit + 1 in
  let czero = Interval.zero in
  let caps = Array.make n czero in
  let conds = Array.make n czero in
  let parent = Array.init n Fun.id in
  let acc arr node i =
    if node <> Device.ground then arr.(node) <- Interval.add arr.(node) i
  in
  Array.iter
    (fun dev ->
      match dev with
      (* a value netlist lint refuses (N004-N006: NaN or infinite here)
         has no enclosure; the device is left out *)
      | Device.Capacitor { n1; n2; farads; _ } ->
          if Float.is_finite farads then begin
            let c = Interval.point farads in
            acc caps n1 c;
            acc caps n2 c
          end
      | Device.Resistor { n1; n2; ohms; _ } ->
          if Float.is_finite ohms && ohms > 0. then begin
            let g = Interval.inv (Interval.point ohms) in
            acc conds n1 g;
            acc conds n2 g
          end
      | Device.Vsource { npos; nneg; _ } -> Topology.union parent npos nneg
      | Device.Mosfet { w; l; _ } when not (Yield_spice.Mosfet.valid_geometry w l)
        ->
          ()
      | Device.Mosfet { d; g; s; b; model; w; l; _ } ->
          let open Yield_spice.Mosfet in
          let up hi = Interval.make 0. (Float.max 0. hi) in
          acc caps g (up ((model.cox *. w *. l) +. ((model.cgso +. model.cgdo) *. w)));
          let junction =
            (model.cj *. w *. model.ext)
            +. (model.cjsw *. 2. *. (w +. model.ext))
          in
          acc caps d (up ((model.cgdo *. w) +. junction));
          acc caps s (up ((model.cgso *. w) +. junction));
          ignore b;
          let gch = up (model.kp *. (w /. l) *. supply_bound) in
          acc conds d gch;
          acc conds s gch
      | Device.Isource _ | Device.Vccs _ -> ())
    (Circuit.devices circuit);
  let ground_root = Topology.find parent Device.ground in
  let comp_c = Hashtbl.create 8 and comp_g = Hashtbl.create 8 in
  for node = 1 to n - 1 do
    let root = Topology.find parent node in
    if root <> ground_root then begin
      let get tbl = Option.value (Hashtbl.find_opt tbl root) ~default:czero in
      Hashtbl.replace comp_c root (Interval.add (get comp_c) caps.(node));
      Hashtbl.replace comp_g root (Interval.add (get comp_g) conds.(node))
    end
  done;
  Hashtbl.fold
    (fun root c acc ->
      let g = Option.value (Hashtbl.find_opt comp_g root) ~default:czero in
      if c.Interval.hi > 0. && g.Interval.hi > 0. then
        Interval.div c g :: acc
      else acc)
    comp_c []

(* ---------- checks ---------- *)

let check_ac ?file ?span circuit ~known ~per_decade ~f_lo ~f_hi ~out =
  let findings = ref [] in
  let push d = findings := d :: !findings in
  let diag ?file = diag ?file ?span in
  if per_decade <= 0 || f_lo <= 0. || f_hi <= f_lo then
    push
      (diag ?file ~code:"A004" ~severity:Diagnostic.Error ~subject:out
         (Printf.sprintf
            ".ac sweep is malformed (dec %d, %g Hz to %g Hz): needs \
             per-decade > 0 and 0 < f_lo < f_hi"
            per_decade f_lo f_hi));
  let sources = ac_excited_sources circuit in
  if sources = [] then
    push
      (diag ?file ~code:"A001" ~severity:Diagnostic.Error ~subject:out
         ".ac analysis with no AC-excited source (no V/I card carries ac=) \
          — the transfer is identically zero");
  if not (Hashtbl.mem known out) then
    push
      (diag ?file ~code:"A002" ~severity:Diagnostic.Error ~subject:out
         (Printf.sprintf
            ".ac output node %s is not referenced by any device" out))
  else if is_ground_name out then
    push
      (diag ?file ~code:"A002" ~severity:Diagnostic.Warning ~subject:out
         ".ac output node is ground — the measured transfer is identically \
          zero")
  else if sources <> [] then begin
    (* reachability: can the declared excitation move the measured node? *)
    let size = Circuit.node_count circuit + 1 in
    let seeds =
      List.concat_map (fun (_, npos, nneg) -> [ npos; nneg ]) sources
      |> List.filter (fun n -> n <> Device.ground)
    in
    let reach =
      Interval.Fixpoint.reachable ~size ~edges:(signal_edges circuit) ~seeds
    in
    let out_idx = Circuit.node circuit out in
    if not reach.(out_idx) then
      push
        (diag ?file ~code:"A003" ~severity:Diagnostic.Error ~subject:out
           (Printf.sprintf
              ".ac output node %s is provably unreachable from any \
               AC-excited source — no signal path exists, the measured \
               transfer is identically zero"
              out))
  end;
  (if f_lo > 0. && f_hi > f_lo then
     match time_constants circuit with
     | [] -> ()
     | taus ->
         let two_pi = 2. *. Float.pi in
         let pole_band =
           Interval.hull_list
             (List.map
                (fun tau -> Interval.inv (Interval.scale two_pi tau))
                taus)
         in
         let sweep = Interval.make f_lo f_hi in
         if Interval.disjoint sweep pole_band then
           push
             (diag ?file ~code:"A005" ~severity:Diagnostic.Warning ~subject:out
                (Printf.sprintf
                   ".ac sweep [%g, %g] Hz is provably disjoint from the \
                    circuit's pole band %s Hz — the sweep cannot observe \
                    any pole"
                   f_lo f_hi
                   (Interval.to_string pole_band))));
  List.rev !findings

let has_time_varying_stimulus circuit =
  Array.exists
    (fun dev ->
      match dev with
      | Device.Vsource { wave; _ } | Device.Isource { wave; _ } ->
          wave <> Device.Constant
      | _ -> false)
    (Circuit.devices circuit)

let check_tran ?file ?span circuit ~known ~dt ~t_stop ~out =
  let findings = ref [] in
  let push d = findings := d :: !findings in
  let diag ?file = diag ?file ?span in
  if dt <= 0. || t_stop <= 0. || dt >= t_stop then
    push
      (diag ?file ~code:"R001" ~severity:Diagnostic.Error ~subject:out
         (Printf.sprintf
            ".tran card is degenerate (dt=%g s, t_stop=%g s): needs \
             0 < dt < t_stop"
            dt t_stop))
  else begin
    let taus = time_constants circuit in
    let min_tau_hi =
      List.fold_left
        (fun m tau -> Float.min m tau.Interval.hi)
        infinity taus
    in
    if dt > min_tau_hi then
      push
        (diag ?file ~code:"R002" ~severity:Diagnostic.Warning ~subject:out
           (Printf.sprintf
              ".tran timestep %g s provably oversteps the fastest circuit \
               time constant (at most %g s) — the integrator will smear or \
               alias that pole"
              dt min_tau_hi))
  end;
  if not (has_time_varying_stimulus circuit) then
    push
      (diag ?file ~code:"R003" ~severity:Diagnostic.Warning ~subject:out
         ".tran analysis with only constant sources — the response decays \
          to the DC operating point and the waveform carries no information");
  if not (Hashtbl.mem known out) then
    push
      (diag ?file ~code:"R004" ~severity:Diagnostic.Error ~subject:out
         (Printf.sprintf
            ".tran output node %s is not referenced by any device" out));
  List.rev !findings

let check_one ?file ?span circuit ~known analysis =
  match (analysis : Yield_spice.Netlist_elab.analysis) with
  | Ac_analysis { per_decade; f_lo; f_hi; out } ->
      check_ac ?file ?span circuit ~known ~per_decade ~f_lo ~f_hi ~out
  | Tran_analysis { dt; t_stop; out } ->
      check_tran ?file ?span circuit ~known ~dt ~t_stop ~out
  | Op | Dc_analysis _ -> []

let check ?file circuit analyses =
  let known = known_node_names circuit in
  List.concat_map (check_one ?file circuit ~known) analyses

let check_deck = function
  | Ok { Deck.path; elaborated = Ok { Deck.circuit; analyses; _ }; _ } ->
      let known = known_node_names circuit in
      List.concat_map
        (fun (analysis, card_span) ->
          check_one ~file:path
            ~span:(Diagnostic.span_of_ast card_span)
            circuit ~known analysis)
        analyses
  | Ok { Deck.elaborated = Error _; _ } | Error _ ->
      (* an unreadable or unparseable deck is Netlist_lint's N000; this
         pass only speaks about analysis cards of a valid netlist *)
      []
