(* The MNA stamps, over a scalar module [S]: how each device's values land
   on the value slots of Mna's stamp plan, and how a MOSFET's terminal
   voltages and drain current map onto its NMOS-convention device.  The
   build splices this text after a scalar prelude twice: over floats into
   Mna (every DC, AC and transient assembly) and over outward-rounded
   intervals into Device_interval (the corner proof's interval DC and AC
   systems), so both write the same values to the same slots in the same
   order (DESIGN.md §4a, "One text, two instances").

   [v] is a value array indexed by the slots of a plan: a workspace's
   [values] / [gvalues] / [cvalues], or the proof's flat n x n arrays of
   the dense system (slot i*n + j).  [sl] is one device's slot list in
   the plan's write order (see Mna.device_stamps), -1 where a ground row
   or column drops a stamp; stamp [o .. o+3] is one group of four.  The
   operand forms ([1. *. g] and [-1. *. g] for a transconductance, [-.g]
   for a conductance's off-diagonal entries) are those of the reference
   assembly test/mna_ref.ml pins the float instance to: they differ only
   in a NaN's sign bit.

   In scope before this text: [S], [Device] and [Mosfet]. *)

let[@inline] acc (v : S.t array) k x = if k >= 0 then v.(k) <- S.(v.(k) + x)

(* a conductance (or capacitance) g between the group's nodes a and b:
   (a,a) (b,b) (a,b) (b,a) *)
let[@inline] stamp_g v (sl : int array) o g =
  acc v sl.(o) g;
  acc v sl.(o + 1) g;
  acc v sl.(o + 2) (S.neg g);
  acc v sl.(o + 3) (S.neg g)

(* a transconductance g from v(cp, cn) into (op, on):
   (op,cp) (op,cn) (on,cp) (on,cn) *)
let[@inline] stamp_gm v (sl : int array) o g =
  acc v sl.(o) S.(c 1. * g);
  acc v sl.(o + 1) S.(c (-1.) * g);
  acc v sl.(o + 2) S.(c (-1.) * g);
  acc v sl.(o + 3) S.(c 1. * g)

(* a voltage source's branch: (npos,br) (br,npos) (nneg,br) (br,nneg) *)
let[@inline] stamp_branch v (sl : int array) =
  acc v sl.(0) S.one;
  acc v sl.(1) S.one;
  acc v sl.(2) (S.c (-1.));
  acc v sl.(3) (S.c (-1.))

(* a current [value] into a node's KCL right-hand side *)
let[@inline] inject (rhs : S.t array) node value =
  if node <> Device.ground then begin
    let i = node - 1 in
    rhs.(i) <- S.(rhs.(i) + value)
  end

(* [g] on every slot of [diag], the node diagonals: the gmin of a DC
   system, the leak of an AC one *)
let[@inline] stamp_diag v (diag : int array) g =
  for i = 0 to Array.length diag - 1 do
    acc v diag.(i) g
  done

(* the AC leak from every node to ground: keeps floating nodes (e.g.
   pure-capacitive) solvable *)
let leak = 1e-12

(* ---------- a MOSFET ---------- *)

(* The polarity flip: a PMOS is evaluated as an NMOS on negated biases and
   its drain current negated back.  [polar p vx vs] is terminal x's bias
   against the source in NMOS convention; [drain_current p ids] is the
   current entering the drain terminal for a device current [ids] in NMOS
   convention. *)
let[@inline] polar (p : Mosfet.polarity) vx vs =
  match p with Mosfet.Nmos -> S.(vx - vs) | Mosfet.Pmos -> S.(vs - vx)

let[@inline] drain_current (p : Mosfet.polarity) ids =
  match p with Mosfet.Nmos -> ids | Mosfet.Pmos -> S.neg ids

(* A MOSFET's 12 conductive stamps into (d, s): gm from v(g, s), gds
   between d and s, gmb from v(b, s).  For both polarities, in node-voltage
   terms, d ids_eff/d vg = gm, d/d vd = gds, d/d vb = gmb and
   d/d vs = -(gm + gds + gmb), where ids_eff is the drain current (for a
   PMOS the two sign flips cancel). *)
let[@inline] stamp_mos_g v sl ~gm ~gds ~gmb =
  stamp_gm v sl 0 gm;
  stamp_g v sl 4 gds;
  stamp_gm v sl 8 gmb

(* its 16 capacitive stamps: the gs, gd, db and sb groups at offsets 12,
   16, 20 and 24 *)
let[@inline] stamp_mos_c v sl ~cgs ~cgd ~cdb ~csb =
  stamp_g v sl 12 cgs;
  stamp_g v sl 16 cgd;
  stamp_g v sl 20 cdb;
  stamp_g v sl 24 csb

(* ---------- the other devices ---------- *)

(* device [dev]'s DC matrix stamps, but a MOSFET's, which depend on its
   bias *)
let[@inline] stamp_linear_dc v sl (dev : Device.t) =
  match dev with
  | Device.Resistor { ohms; _ } -> stamp_g v sl 0 S.(one / c ohms)
  | Device.Vsource _ -> stamp_branch v sl
  | Device.Vccs { gm; _ } -> stamp_gm v sl 0 (S.c gm)
  | Device.Capacitor _ | Device.Isource _ | Device.Mosfet _ -> ()

(* device [dev]'s AC stamps into G ([gv]) and C ([cv]), but a MOSFET's,
   which come from its operating point *)
let[@inline] stamp_linear_ac gv cv sl (dev : Device.t) =
  match dev with
  | Device.Resistor { ohms; _ } -> stamp_g gv sl 0 S.(one / c ohms)
  | Device.Capacitor { farads; _ } -> stamp_g cv sl 0 (S.c farads)
  | Device.Vsource _ -> stamp_branch gv sl
  | Device.Vccs { gm; _ } -> stamp_gm gv sl 0 (S.c gm)
  | Device.Isource _ | Device.Mosfet _ -> ()

(* an independent source's DC right-hand side, its value scaled by
   [scale]; [branch] is a voltage source's branch row *)
let[@inline] source_dc (rhs : S.t array) ~branch (dev : Device.t) ~scale =
  match dev with
  | Device.Vsource { dc; _ } -> rhs.(branch) <- S.(c dc * scale)
  | Device.Isource { npos; nneg; dc; _ } ->
      inject rhs npos S.(c (-.dc) * scale);
      inject rhs nneg S.(c dc * scale)
  | Device.Resistor _ | Device.Capacitor _ | Device.Vccs _ | Device.Mosfet _
    ->
      ()

(* an independent source's AC right-hand side, whose entries are complex:
   [lift negate a] makes one of the real magnitude [a], negated when
   [negate] (so that no float crosses the call unboxed); [add] sums two *)
let[@inline] source_ac ~lift ~add rhs ~branch (dev : Device.t) =
  match dev with
  | Device.Vsource { ac; _ } -> rhs.(branch) <- lift false ac
  | Device.Isource { npos; nneg; ac; _ } ->
      if npos <> Device.ground then rhs.(npos - 1) <- add rhs.(npos - 1) (lift true ac);
      if nneg <> Device.ground then rhs.(nneg - 1) <- add rhs.(nneg - 1) (lift false ac)
  | Device.Resistor _ | Device.Capacitor _ | Device.Vccs _ | Device.Mosfet _
    ->
      ()
