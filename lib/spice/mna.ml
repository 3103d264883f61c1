module Vec = Yield_numeric.Vec
module Mat = Yield_numeric.Mat
module Linsys = Yield_numeric.Linsys

type layout = {
  n_nodes : int;
  size : int;
  branches : (string, int) Hashtbl.t;
}

let layout circuit =
  let n_nodes = Circuit.node_count circuit in
  let branches = Hashtbl.create 8 in
  let next = ref n_nodes in
  Array.iter
    (fun dev ->
      match dev with
      | Device.Vsource { name; _ } ->
          Hashtbl.replace branches name !next;
          incr next
      | Device.Resistor _ | Device.Capacitor _ | Device.Isource _
      | Device.Vccs _ | Device.Mosfet _ ->
          ())
    (Circuit.devices circuit);
  { n_nodes; size = !next; branches }

let size l = l.size

let n_nodes l = l.n_nodes

let branch_index l name = Hashtbl.find l.branches name

let voltage x n = if n = Device.ground then 0. else x.(n - 1)

(* Per-sample model overrides: [models.(di)] replaces the MOSFET model of
   device index [di] (position in [Circuit.devices]) when set.  [None] (or
   a [None] slot) means the nominal model baked into the circuit — this is
   the batch-first Monte Carlo patching path, which must apply the exact
   model the full-rebuild path would have baked in. *)
type models = Mosfet.model option array

let model_override models di default =
  match models with
  | None -> default
  | Some arr -> ( match arr.(di) with Some m -> m | None -> default)

(* Stamping helpers, generic over an [add row col value] accumulator so the
   same arithmetic lands in a dense matrix or a sparse value slot; ground
   rows and columns are skipped. *)

let stamp_g_into add a b g =
  if a <> Device.ground then add (a - 1) (a - 1) g;
  if b <> Device.ground then add (b - 1) (b - 1) g;
  if a <> Device.ground && b <> Device.ground then begin
    add (a - 1) (b - 1) (-.g);
    add (b - 1) (a - 1) (-.g)
  end

(* transconductance: current [g * v(cp, cn)] leaves node [op] and enters
   node [on] *)
let stamp_gm_into add op_node on_node cp cn g =
  let entry row col sign =
    if row <> Device.ground && col <> Device.ground then
      add (row - 1) (col - 1) (sign *. g)
  in
  entry op_node cp 1.;
  entry op_node cn (-1.);
  entry on_node cp (-1.);
  entry on_node cn 1.

let inject rhs node value =
  if node <> Device.ground then rhs.(node - 1) <- rhs.(node - 1) +. value

(* NMOS-normalised linearisation of a MOSFET at the guess [x].  Returns the
   operating point plus the device-convention drain current [ids_eff] (the
   current entering the drain terminal). *)
let mos_linearise ~model ~w ~l ~d ~g ~s ~b x =
  let vd = voltage x d
  and vg = voltage x g
  and vs = voltage x s
  and vb = voltage x b in
  let vgs, vds, vbs =
    match model.Mosfet.polarity with
    | Mosfet.Nmos -> (vg -. vs, vd -. vs, vb -. vs)
    | Mosfet.Pmos -> (vs -. vg, vs -. vd, vs -. vb)
  in
  let op = Mosfet.eval model ~w ~l ~vgs ~vds ~vbs in
  let ids_eff =
    match model.Mosfet.polarity with
    | Mosfet.Nmos -> op.Mosfet.ids
    | Mosfet.Pmos -> -.op.Mosfet.ids
  in
  (op, ids_eff)

let stamp_conductance_into = stamp_g_into

let stamp_transconductance_into add ~out_p ~out_n ~in_p ~in_n g =
  stamp_gm_into add out_p out_n in_p in_n g

let stamp_branch_into add l ~name ~npos ~nneg =
  let br = Hashtbl.find l.branches name in
  if npos <> Device.ground then begin
    add (npos - 1) br 1.;
    add br (npos - 1) 1.
  end;
  if nneg <> Device.ground then begin
    add (nneg - 1) br (-1.);
    add br (nneg - 1) (-1.)
  end

let stamp_mosfet_dc_into add rhs ~x ~d ~g:gate ~s ~b ~model ~w ~l =
  let op, ids_eff = mos_linearise ~model ~w ~l ~d ~g:gate ~s ~b x in
  let gm = op.Mosfet.gm and gds = op.Mosfet.gds and gmb = op.Mosfet.gmb in
  stamp_gm_into add d s gate s gm;
  stamp_g_into add d s gds;
  stamp_gm_into add d s b s gmb;
  let vd = voltage x d
  and vg = voltage x gate
  and vs = voltage x s
  and vb = voltage x b in
  let linear_current =
    (gm *. (vg -. vs)) +. (gds *. (vd -. vs)) +. (gmb *. (vb -. vs))
  in
  let ieq = linear_current -. ids_eff in
  inject rhs d ieq;
  inject rhs s (-.ieq);
  op

(* ---------- structural pattern, built once per topology ---------- *)

(* Union of every structural position any analysis stamps for this circuit:
   the DC Newton system (gmin node diagonal, conductances, branch rows,
   transconductances), the AC system (capacitor and MOS-capacitance
   positions, leak diagonal), and the transient companion models (the same
   capacitive pairs as conductances).  One superset pattern per topology
   keeps a single cached symbolic factorisation valid for all of them at
   the cost of a little extra fill. *)
let pattern circuit l =
  let bld = Linsys.Pattern.builder l.size in
  let add i j = Linsys.Pattern.add bld i j in
  (* capacitor-only positions are numerically zero in a DC assembly, so
     they enter the pattern as weak entries: structurally present (the AC
     and transient assemblies fill them) but never eligible as a pivot of
     the csr transversal *)
  let add_weak i j = Linsys.Pattern.add_weak bld i j in
  let pg a b = stamp_g_into (fun i j _ -> add i j) a b 1. in
  let pc a b = stamp_g_into (fun i j _ -> add_weak i j) a b 1. in
  let pgm op_node on_node cp cn =
    stamp_gm_into (fun i j _ -> add i j) op_node on_node cp cn 1.
  in
  for i = 0 to l.n_nodes - 1 do
    add i i
  done;
  Array.iter
    (fun dev ->
      match dev with
      | Device.Resistor { n1; n2; _ } -> pg n1 n2
      | Device.Capacitor { n1; n2; _ } -> pc n1 n2
      | Device.Vsource { name; npos; nneg; _ } ->
          stamp_branch_into (fun i j _ -> add i j) l ~name ~npos ~nneg
      | Device.Isource _ -> ()
      | Device.Vccs { out_p; out_n; in_p; in_n; _ } -> pgm out_p out_n in_p in_n
      | Device.Mosfet { d; g; s; b; _ } ->
          pgm d s g s;
          pg d s;
          pgm d s b s;
          (* capacitive pairs: AC C stamps and transient companion models *)
          pc g s;
          pc g d;
          pc d b;
          pc s b)
    (Circuit.devices circuit);
  Linsys.Pattern.build bld

(* the structural prechecks depend on the topology alone, like the
   pattern, so they run here once instead of in every solve *)
type sys = {
  sys_layout : layout;
  compiled : Linsys.t;
  dc_issues : Topology.issue list;
  ac_issues : Topology.issue list;
}

let sys ?(backend = Linsys.Dense) circuit =
  let l = layout circuit in
  let compiled =
    (* the dense backend ignores structure, so it gets no pattern *)
    match backend with
    | Linsys.Dense -> Linsys.dense_of_size l.size
    | Linsys.Csr -> Linsys.compile backend (pattern circuit l)
  in
  {
    sys_layout = l;
    compiled;
    dc_issues = Topology.dc_issues circuit;
    ac_issues = Topology.ac_issues circuit;
  }

let default_sys given circuit =
  match given with Some s -> s | None -> sys circuit

let sys_layout s = s.sys_layout

let sys_dc_issues s = s.dc_issues

let sys_ac_issues s = s.ac_issues

let sys_real s = Linsys.real s.compiled

let sys_complex s = Linsys.complex s.compiled

let sys_solver_name s = Linsys.name s.compiled

(* ---------- assembly ---------- *)

let assemble_dc_core add rhs ?models circuit l ~x ~source_scale ~gmin =
  for i = 0 to l.n_nodes - 1 do
    add i i gmin
  done;
  let stamp_device di dev =
    match dev with
    | Device.Resistor { n1; n2; ohms; _ } -> stamp_g_into add n1 n2 (1. /. ohms)
    | Device.Capacitor _ -> ()
    | Device.Vsource { name; npos; nneg; dc; _ } ->
        stamp_branch_into add l ~name ~npos ~nneg;
        rhs.(Hashtbl.find l.branches name) <- dc *. source_scale
    | Device.Isource { npos; nneg; dc; _ } ->
        inject rhs npos (-.dc *. source_scale);
        inject rhs nneg (dc *. source_scale)
    | Device.Vccs { out_p; out_n; in_p; in_n; gm; _ } ->
        stamp_gm_into add out_p out_n in_p in_n gm
    | Device.Mosfet { d; g = gate; s; b; model; w; l = len; _ } ->
        (* For both polarities, in node-voltage terms:
             d ids_eff/d vg = gm, d/d vd = gds, d/d vb = gmb,
             d/d vs = -(gm + gds + gmb).
           (For PMOS the two sign flips cancel.) *)
        let model = model_override models di model in
        ignore
          (stamp_mosfet_dc_into add rhs ~x ~d ~g:gate ~s ~b ~model ~w ~l:len)
  in
  Array.iteri stamp_device (Circuit.devices circuit)

let assemble_dc ?models circuit l ~x ~source_scale ~gmin =
  let g = Mat.create l.size l.size in
  let rhs = Vec.create l.size in
  assemble_dc_core (Mat.add_to g) rhs ?models circuit l ~x ~source_scale ~gmin;
  (g, rhs)

let assemble_dc_into (rs : Linsys.real) ?models circuit l ~x ~source_scale
    ~gmin =
  rs.Linsys.reset ();
  let rhs = Vec.create l.size in
  assemble_dc_core rs.Linsys.add rhs ?models circuit l ~x ~source_scale ~gmin;
  rhs

let mos_operating_points ?models circuit ~x =
  let acc = ref [] in
  Array.iteri
    (fun di dev ->
      match dev with
      | Device.Mosfet { name; d; g; s; b; model; w; l } ->
          let model = model_override models di model in
          let op, _ = mos_linearise ~model ~w ~l ~d ~g ~s ~b x in
          acc := (name, op) :: !acc
      | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
      | Device.Isource _ | Device.Vccs _ ->
          ())
    (Circuit.devices circuit);
  List.rev !acc

let assemble_ac_into (cs : Linsys.complex_sys) circuit l ~ops =
  cs.Linsys.creset ();
  let add_g = cs.Linsys.add_g and add_c = cs.Linsys.add_c in
  let rhs = Array.make l.size Complex.zero in
  let stamp_device dev =
    match dev with
    | Device.Resistor { n1; n2; ohms; _ } -> stamp_g_into add_g n1 n2 (1. /. ohms)
    | Device.Capacitor { n1; n2; farads; _ } -> stamp_g_into add_c n1 n2 farads
    | Device.Vsource { name; npos; nneg; ac; _ } ->
        stamp_branch_into add_g l ~name ~npos ~nneg;
        rhs.(Hashtbl.find l.branches name) <- { Complex.re = ac; im = 0. }
    | Device.Isource { npos; nneg; ac; _ } ->
        if npos <> Device.ground then
          rhs.(npos - 1) <-
            Complex.add rhs.(npos - 1) { Complex.re = -.ac; im = 0. };
        if nneg <> Device.ground then
          rhs.(nneg - 1) <-
            Complex.add rhs.(nneg - 1) { Complex.re = ac; im = 0. }
    | Device.Vccs { out_p; out_n; in_p; in_n; gm; _ } ->
        stamp_gm_into add_g out_p out_n in_p in_n gm
    | Device.Mosfet { name; d; g = gate; s; b; _ } ->
        let op = ops name in
        stamp_gm_into add_g d s gate s op.Mosfet.gm;
        stamp_g_into add_g d s op.Mosfet.gds;
        stamp_gm_into add_g d s b s op.Mosfet.gmb;
        stamp_g_into add_c gate s op.Mosfet.cgs;
        stamp_g_into add_c gate d op.Mosfet.cgd;
        stamp_g_into add_c d b op.Mosfet.cdb;
        stamp_g_into add_c s b op.Mosfet.csb
  in
  Array.iter stamp_device (Circuit.devices circuit);
  (* small leak keeps floating nodes (e.g. pure-capacitive) solvable *)
  for i = 0 to l.n_nodes - 1 do
    add_g i i 1e-12
  done;
  rhs
