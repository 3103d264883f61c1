(* The last piece of mna.ml, which lib/spice/dune splices together: the
   float scalar (scalar_float.ml), the stamps (stamp_body.ml) and this
   text, which builds the stamp plan and replays it. *)

module Vec = Yield_numeric.Vec
module Linsys = Yield_numeric.Linsys

(* The stamp plan of a compiled topology: the value slot of every matrix
   stamp each device writes, resolved once when the [sys] is built.
   [slots.(di)] lists device [di]'s stamps in the order the assembly
   writes them (see [device_stamps]), -1 where a ground row or column
   skips one; [diag.(i)] is the slot of node unknown i's diagonal (the
   gmin and AC leak stamps); [branch.(di)] is the branch row of a voltage
   source, -1 for other devices.  [owner] is the compiled system the slots
   index: a plan replays only into that system's workspaces. *)
type plan = {
  owner : Linsys.t;
  diag : int array;
  slots : int array array;
  branch : int array;
}

type layout = {
  n_nodes : int;
  size : int;
  branches : (string, int) Hashtbl.t;
  plan : plan;
}

(* unknown count and voltage-source branch rows, in device order *)
let shape circuit =
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
  (n_nodes, !next, branches)

let size l = l.size

let n_nodes l = l.n_nodes

let branch_index l name = Hashtbl.find l.branches name

let[@inline] voltage x n = if n = Device.ground then 0. else x.(n - 1)

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

(* ---------- the stamps each device writes, per topology ---------- *)

(* Device [dev]'s matrix stamps in the order the assembly writes them:
   stamp k lands on ([rows.(k)], [cols.(k)]) in unknown indices, where a
   ground node is -1 and a stamp with a ground row or column is skipped.
   A conductance (or capacitance) between nodes a and b writes (a,a)
   (b,b) (a,b) (b,a); a transconductance from v(cp, cn) into (op, on)
   writes (op,cp) (op,cn) (on,cp) (on,cn); a voltage source on branch row
   br writes (npos,br) (br,npos) (nneg,br) (br,nneg).  The first [strong]
   stamps carry a DC value (conductances, branch rows,
   transconductances); the rest only a capacitance.  A MOSFET writes its
   12 conductive stamps (gm, gds, gmb: the DC Newton stamps and AC G) and
   then its 16 capacitive ones (cgs, cgd, cdb, csb: AC C); the replays
   below read them at those offsets. *)
type stamps = { rows : int array; cols : int array; strong : int }

let device_stamps branches dev =
  let n =
    match dev with
    | Device.Mosfet _ -> 28
    | Device.Isource _ -> 0
    | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
    | Device.Vccs _ ->
        4
  in
  let rows = Array.make n (-1) and cols = Array.make n (-1) in
  let k = ref 0 in
  let put r c =
    rows.(!k) <- r;
    cols.(!k) <- c;
    incr k
  in
  let g a b =
    put (a - 1) (a - 1);
    put (b - 1) (b - 1);
    put (a - 1) (b - 1);
    put (b - 1) (a - 1)
  in
  let gm op on_ cp cn =
    put (op - 1) (cp - 1);
    put (op - 1) (cn - 1);
    put (on_ - 1) (cp - 1);
    put (on_ - 1) (cn - 1)
  in
  let strong =
    match dev with
    | Device.Resistor { n1; n2; _ } ->
        g n1 n2;
        4
    | Device.Capacitor { n1; n2; _ } ->
        g n1 n2;
        0
    | Device.Vsource { name; npos; nneg; _ } ->
        let br = Hashtbl.find branches name in
        put (npos - 1) br;
        put br (npos - 1);
        put (nneg - 1) br;
        put br (nneg - 1);
        4
    | Device.Isource _ -> 0
    | Device.Vccs { out_p; out_n; in_p; in_n; _ } ->
        gm out_p out_n in_p in_n;
        4
    | Device.Mosfet { d; g = gate; s; b; _ } ->
        gm d s gate s;
        g d s;
        gm d s b s;
        g gate s;
        g gate d;
        g d b;
        g s b;
        12
  in
  { rows; cols; strong }

let stamps_of circuit branches =
  Array.map (device_stamps branches) (Circuit.devices circuit)

(* ---------- structural pattern, built once per topology ---------- *)

(* Union of every structural position any analysis stamps for this circuit:
   the DC Newton system (gmin node diagonal, conductances, branch rows,
   transconductances), the AC system (capacitor and MOS-capacitance
   positions, leak diagonal), and the transient companion models (the same
   capacitive pairs as conductances).  One superset pattern per topology
   keeps a single cached symbolic factorisation valid for all of them at
   the cost of a little extra fill.  Capacitor-only positions are
   numerically zero in a DC assembly, so they enter the pattern as weak
   entries: structurally present (the AC and transient assemblies fill
   them) but never eligible as a pivot of the csr transversal. *)
let pattern_of stamps ~n_nodes ~size =
  let bld = Linsys.Pattern.builder size in
  for i = 0 to n_nodes - 1 do
    Linsys.Pattern.add bld i i
  done;
  Array.iter
    (fun { rows; cols; strong } ->
      Array.iteri
        (fun k r ->
          let c = cols.(k) in
          if r >= 0 && c >= 0 then
            if k < strong then Linsys.Pattern.add bld r c
            else Linsys.Pattern.add_weak bld r c)
        rows)
    stamps;
  Linsys.Pattern.build bld

let pattern circuit l =
  pattern_of (stamps_of circuit l.branches) ~n_nodes:l.n_nodes ~size:l.size

let plan_of circuit stamps owner ~n_nodes ~branches =
  {
    owner;
    diag = Array.init n_nodes (fun i -> Linsys.slot owner i i);
    slots =
      Array.map
        (fun { rows; cols; _ } ->
          Array.mapi
            (fun k r ->
              let c = cols.(k) in
              if r < 0 || c < 0 then -1 else Linsys.slot owner r c)
            rows)
        stamps;
    branch =
      Array.map
        (fun dev ->
          match dev with
          | Device.Vsource { name; _ } -> Hashtbl.find branches name
          | Device.Resistor _ | Device.Capacitor _ | Device.Isource _
          | Device.Vccs _ | Device.Mosfet _ ->
              -1)
        (Circuit.devices circuit);
  }

(* the structural prechecks depend on the topology alone, like the
   pattern, so they run here once instead of in every solve *)
type sys = {
  sys_layout : layout;
  compiled : Linsys.t;
  dc_issues : Topology.issue list;
  ac_issues : Topology.issue list;
}

let sys ?(backend = Linsys.Dense) circuit =
  let n_nodes, size, branches = shape circuit in
  let stamps = stamps_of circuit branches in
  let compiled =
    (* the dense backend ignores structure, so it gets no pattern *)
    match backend with
    | Linsys.Dense -> Linsys.dense_of_size size
    | Linsys.Csr -> Linsys.compile backend (pattern_of stamps ~n_nodes ~size)
  in
  {
    sys_layout =
      {
        n_nodes;
        size;
        branches;
        plan = plan_of circuit stamps compiled ~n_nodes ~branches;
      };
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

(* ---------- the replay ---------- *)

(* The replay writes the workspace's value arrays through the plan's
   slots with the stamp body's helpers: no closure, no slot search, no
   boxed float.  Each slot sees the operands of the reference assembly
   (test/mna_ref.ml) in the same order.  The helpers are inlined so their
   float arguments stay unboxed. *)

let plan l = l.plan

let bound l owner =
  if l.plan.owner != owner then
    invalid_arg "Mna: workspace of another system than the layout's";
  l.plan

(* A MOSFET's Newton linearisation at [x]: its conductive stamps and the
   equivalent current it injects.  The bias and the model's results pass
   through [buf] (a Mosfet.buffer), so no float crosses a call boxed. *)
let mosfet_dc v rhs buf (sl : int array) x ~(model : Mosfet.model) ~w ~l ~d ~g
    ~s ~b =
  let vd = voltage x d and vg = voltage x g and vs = voltage x s and vb = voltage x b in
  let p = model.polarity in
  buf.(0) <- polar p vg vs;
  buf.(1) <- polar p vd vs;
  buf.(2) <- polar p vb vs;
  Mosfet.linearise model ~w ~l buf;
  let ids_eff = drain_current p buf.(3) in
  let gm = buf.(4) and gds = buf.(5) and gmb = buf.(6) in
  stamp_mos_g v sl ~gm ~gds ~gmb;
  let linear_current =
    (gm *. (vg -. vs)) +. (gds *. (vd -. vs)) +. (gmb *. (vb -. vs))
  in
  let ieq = linear_current -. ids_eff in
  inject rhs d ieq;
  inject rhs s (-.ieq)

(* device [di]'s DC matrix stamps, plus a MOSFET's linearisation current;
   the independent sources' right-hand-side values are the caller's *)
let device_dc v rhs buf p models x di dev =
  let sl = p.slots.(di) in
  match dev with
  | Device.Mosfet { d; g; s; b; model; w; l; _ } ->
      let model = model_override models di model in
      mosfet_dc v rhs buf sl x ~model ~w ~l ~d ~g ~s ~b
  | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
  | Device.Isource _ | Device.Vccs _ ->
      stamp_linear_dc v sl dev

let devices_of p circuit =
  let devices = Circuit.devices circuit in
  if Array.length devices <> Array.length p.slots then
    invalid_arg "Mna: circuit of another topology than the layout's";
  devices

let assemble_dc_into (rs : Linsys.real) ?models circuit l ~x ~source_scale
    ~gmin =
  let p = bound l rs.Linsys.owner in
  let devices = devices_of p circuit in
  rs.Linsys.reset ();
  let v = rs.Linsys.values in
  let rhs = Vec.create l.size in
  let buf = Mosfet.buffer () in
  stamp_diag v p.diag gmin;
  for di = 0 to Array.length devices - 1 do
    let dev = devices.(di) in
    device_dc v rhs buf p models x di dev;
    source_dc rhs ~branch:p.branch.(di) dev ~scale:source_scale
  done;
  rhs

let stamp_device_dc (rs : Linsys.real) l ?models circuit di ~x ~scratch rhs =
  let p = bound l rs.Linsys.owner in
  let devices = devices_of p circuit in
  device_dc rs.Linsys.values rhs scratch p models x di devices.(di)

let stamp_capacitance (rs : Linsys.real) l di ~group c =
  let p = bound l rs.Linsys.owner in
  stamp_g rs.Linsys.values p.slots.(di) group c

let mos_operating_point (model : Mosfet.model) ~w ~l ~d ~g ~s ~b x =
  let p = model.polarity in
  let vd = voltage x d and vg = voltage x g and vs = voltage x s and vb = voltage x b in
  Mosfet.eval model ~w ~l ~vgs:(polar p vg vs) ~vds:(polar p vd vs)
    ~vbs:(polar p vb vs)

let mos_operating_points ?models circuit ~x =
  let acc = ref [] in
  Array.iteri
    (fun di dev ->
      match dev with
      | Device.Mosfet { name; d; g; s; b; model; w; l } ->
          let model = model_override models di model in
          let op = mos_operating_point model ~w ~l ~d ~g ~s ~b x in
          acc := (name, op) :: !acc
      | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
      | Device.Isource _ | Device.Vccs _ ->
          ())
    (Circuit.devices circuit);
  List.rev !acc

let complex_of_real negate a = { Complex.re = (if negate then -.a else a); im = 0. }

let assemble_ac_into (cs : Linsys.complex_sys) circuit l ~ops =
  let p = bound l cs.Linsys.cowner in
  let devices = devices_of p circuit in
  cs.Linsys.creset ();
  let gv = cs.Linsys.gvalues and cv = cs.Linsys.cvalues in
  let rhs = Array.make l.size Complex.zero in
  for di = 0 to Array.length devices - 1 do
    let sl = p.slots.(di) and dev = devices.(di) in
    stamp_linear_ac gv cv sl dev;
    source_ac ~lift:complex_of_real ~add:Complex.add rhs ~branch:p.branch.(di)
      dev;
    match dev with
    | Device.Mosfet { name; _ } ->
        let op : Mosfet.op = ops name in
        stamp_mos_g gv sl ~gm:op.gm ~gds:op.gds ~gmb:op.gmb;
        stamp_mos_c cv sl ~cgs:op.cgs ~cgd:op.cgd ~cdb:op.cdb ~csb:op.csb
    | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
    | Device.Isource _ | Device.Vccs _ ->
        ()
  done;
  stamp_diag gv p.diag leak;
  rhs
