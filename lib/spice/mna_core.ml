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

(* Per-evaluation MOSFET geometry: a design vector and, by device index
   like [models], where device [di]'s W and L are in it,
   [design.(at.(2 * di))] and [design.(at.(2 * di + 1))], -1 for a
   dimension its record keeps.  A testbench template passes each design
   this way instead of rebuilding its circuit. *)
type sizes = { design : float array; at : int array }

(* [eval model ~w ~l buf] of device [di] under [sizes], with [eval_at]
   reading both dimensions from the design vector when it holds both, so
   that neither is boxed; a device with one dimension sized and one kept
   passes its floats boxed *)
let[@inline] sized eval eval_at (model : Mosfet.model) sizes di ~w ~l buf =
  match sizes with
  | None -> eval model ~w ~l buf
  | Some { design; at } ->
      let w_at = at.(2 * di) and l_at = at.((2 * di) + 1) in
      if w_at >= 0 && l_at >= 0 then eval_at model design ~w_at ~l_at buf
      else if w_at < 0 && l_at < 0 then eval model ~w ~l buf
      else
        eval model
          ~w:(if w_at >= 0 then design.(w_at) else w)
          ~l:(if l_at >= 0 then design.(l_at) else l)
          buf

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

(* A DC solve's workspace: the real system, the right-hand side the
   assembly writes, the MOSFET buffer it evaluates in, and Newton's
   iterate, its start and the linearised system's solution. *)
type dc_work = {
  rs : Linsys.real;
  rhs : Vec.t;
  scratch : float array;
  x : Vec.t;
  x0 : Vec.t;
  x_new : Vec.t;
  layout : layout;
  (* what [assemble_dc] linearises, as [aim_dc] last set it: a Newton
     loop passes the assembly without a closure *)
  mutable circuit : Circuit.t;
  mutable models : models option;
  mutable sizes : sizes option;
  mutable source_scale : float;
  mutable gmin : float;
  busy : bool Atomic.t;
}

(* A sweep's points, by frequency index: the response's two parts, which
   the sweep writes, and the magnitudes and phases its measurements
   write.  The arrays grow to the longest grid a workspace has swept. *)
type response = {
  mutable re : float array;
  mutable im : float array;
  mutable mag_db : float array;
  mutable phase_deg : float array;
  marks : int array;
}

let response n =
  {
    re = Array.make n 0.;
    im = Array.make n 0.;
    mag_db = Array.make n 0.;
    phase_deg = Array.make n 0.;
    marks = Array.make 2 0;
  }

let reserve r n =
  if Array.length r.re < n then begin
    r.re <- Array.make n 0.;
    r.im <- Array.make n 0.;
    r.mag_db <- Array.make n 0.;
    r.phase_deg <- Array.make n 0.
  end

(* an AC transfer's workspace: the complex system and its right-hand
   side, the Mosfet buffer its MOSFETs' small-signal models are evaluated
   in, and the response *)
type ac_work = {
  cs : Linsys.complex_sys;
  crhs : Complex.t array;
  ss : float array;
  points : response;
  ac_busy : bool Atomic.t;
}

(* the structural prechecks depend on the topology alone, like the
   pattern, so they run here once instead of in every solve; [dc_shelf]
   and [ac_shelf] hold every workspace a call has borrowed *)
type sys = {
  sys_layout : layout;
  compiled : Linsys.t;
  dc_issues : Topology.issue list;
  ac_issues : Topology.issue list;
  dc_shelf : dc_work array Atomic.t;
  ac_shelf : ac_work array Atomic.t;
}

let sys ?(backend = Linsys.Dense) circuit =
  let n_nodes, size, branches = shape circuit in
  let stamps = stamps_of circuit branches in
  (* both backends compile the pattern: csr analyses it now; dense builds
     it for the pivot-path plan its AC sweep grows, when the first sweep
     needs it, so a sys that only solves DC never pays for it *)
  let compiled =
    Linsys.compile_deferred backend ~size (fun () -> pattern_of stamps ~n_nodes ~size)
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
    dc_shelf = Atomic.make [||];
    ac_shelf = Atomic.make [||];
  }

let default_sys given circuit =
  match given with Some s -> s | None -> sys circuit

let sys_layout s = s.sys_layout

let sys_dc_issues s = s.dc_issues

let sys_ac_issues s = s.ac_issues

let sys_real s = Linsys.real s.compiled

let sys_complex s = Linsys.complex s.compiled

let sys_solver_name s = Linsys.name s.compiled

(* ---------- borrowed workspaces ---------- *)

(* what a workspace's DC assembly linearises before its first [aim_dc] *)
let unaimed = Circuit.create ()

(* made busy: its maker is its first borrower *)
let dc_work s =
  let n = s.sys_layout.size in
  {
    rs = sys_real s;
    rhs = Vec.create n;
    scratch = Mosfet.buffer ();
    x = Vec.create n;
    x0 = Vec.create n;
    x_new = Vec.create n;
    layout = s.sys_layout;
    circuit = unaimed;
    models = None;
    sizes = None;
    source_scale = 1.;
    gmin = 0.;
    busy = Atomic.make true;
  }

let ac_work s =
  {
    cs = sys_complex s;
    crhs = Array.make s.sys_layout.size Complex.zero;
    ss = Mosfet.buffer ();
    points = response 0;
    ac_busy = Atomic.make true;
  }

let dc_busy (w : dc_work) = w.busy

let ac_busy (w : ac_work) = w.ac_busy

(* A shelf of one sys's workspaces: every workspace ever made for it,
   each with a busy flag.  A borrower claims the first free one by
   compare-and-set on its flag, or makes its own and shelves it when
   none is free; giving one back clears its flag.  Two domains never
   hold one workspace, a nested borrower makes its own, and the shelf
   never holds more workspaces than were out at once.  Claiming and
   giving back allocate nothing: the functions are top-level, and no
   list cell is consed. *)
let rec claim busy ws i =
  if i = Array.length ws then -1
  else if Atomic.compare_and_set (busy ws.(i)) false true then i
  else claim busy ws (i + 1)

let rec shelve shelf w =
  let cur = Atomic.get shelf in
  if not (Atomic.compare_and_set shelf cur (Array.append cur [| w |])) then
    shelve shelf w

let lend busy make shelf s =
  let ws = Atomic.get shelf in
  let i = claim busy ws 0 in
  if i >= 0 then ws.(i)
  else begin
    let w = make s in
    shelve shelf w;
    w
  end

let borrow_dc s = lend dc_busy dc_work s.dc_shelf s

let return_dc w = Atomic.set w.busy false

let borrow_ac s = lend ac_busy ac_work s.ac_shelf s

let return_ac w = Atomic.set w.ac_busy false

(* Every user of a workspace writes what it reads before reading it, so
   one left by a call that raised is as good as a fresh one: it goes back
   on the shelf either way. *)
let borrowing borrow give s f =
  let w = borrow s in
  match f w with
  | r ->
      give w;
      r
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      give w;
      Printexc.raise_with_backtrace e bt

let with_dc s f = borrowing borrow_dc return_dc s f

let with_ac s f = borrowing borrow_ac return_ac s f

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
let mosfet_dc v rhs buf (sl : int array) x ~(model : Mosfet.model) ~sizes ~di
    ~w ~l ~d ~g ~s ~b =
  let vd = voltage x d and vg = voltage x g and vs = voltage x s and vb = voltage x b in
  let p = model.polarity in
  buf.(0) <- polar p vg vs;
  buf.(1) <- polar p vd vs;
  buf.(2) <- polar p vb vs;
  sized Mosfet.linearise Mosfet.linearise_at model sizes di ~w ~l buf;
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
let device_dc v rhs buf p models sizes x di dev =
  let sl = p.slots.(di) in
  match dev with
  | Device.Mosfet { d; g; s; b; model; w; l; _ } ->
      let model = model_override models di model in
      mosfet_dc v rhs buf sl x ~model ~sizes ~di ~w ~l ~d ~g ~s ~b
  | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
  | Device.Isource _ | Device.Vccs _ ->
      stamp_linear_dc v sl dev

let devices_of p circuit =
  let devices = Circuit.devices circuit in
  if Array.length devices <> Array.length p.slots then
    invalid_arg "Mna: circuit of another topology than the layout's";
  devices

(* the one DC assembly: the system into [rs], the right-hand side into
   [rhs] (zero-filled first, to the +0 of a fresh vector), each MOSFET
   evaluated in [buf] *)
let assemble_dc_rhs (rs : Linsys.real) ?models ?sizes circuit l ~x
    ~source_scale ~gmin ~buf rhs =
  let p = bound l rs.Linsys.owner in
  let devices = devices_of p circuit in
  rs.Linsys.reset ();
  let v = rs.Linsys.values in
  Array.fill rhs 0 (Array.length rhs) 0.;
  stamp_diag v p.diag gmin;
  for di = 0 to Array.length devices - 1 do
    let dev = devices.(di) in
    device_dc v rhs buf p models sizes x di dev;
    source_dc rhs ~branch:p.branch.(di) dev ~scale:source_scale
  done

let assemble_dc_into rs ?models circuit l ~x ~source_scale ~gmin =
  let rhs = Vec.create l.size in
  assemble_dc_rhs rs ?models circuit l ~x ~source_scale ~gmin
    ~buf:(Mosfet.buffer ()) rhs;
  rhs

(* the floats are stored as they come, boxed, and passed on as they are
   read: no store or read boxes one *)
let aim_dc w ?models ?sizes circuit ~source_scale ~gmin =
  w.circuit <- circuit;
  w.models <- models;
  w.sizes <- sizes;
  w.source_scale <- source_scale;
  w.gmin <- gmin

let assemble_dc w x =
  assemble_dc_rhs w.rs ?models:w.models ?sizes:w.sizes w.circuit w.layout ~x
    ~source_scale:w.source_scale ~gmin:w.gmin ~buf:w.scratch w.rhs

let stamp_device_dc (rs : Linsys.real) l ?models circuit di ~x ~scratch rhs =
  let p = bound l rs.Linsys.owner in
  let devices = devices_of p circuit in
  device_dc rs.Linsys.values rhs scratch p models None x di devices.(di)

let stamp_capacitance (rs : Linsys.real) l di ~group c =
  let p = bound l rs.Linsys.owner in
  stamp_g rs.Linsys.values p.slots.(di) group c

(* a MOSFET's NMOS-convention bias at [x], into buf.(0), buf.(1) and
   buf.(2) as {!Mosfet.linearise} reads it *)
let[@inline] set_bias buf (p : Mosfet.polarity) x ~d ~g ~s ~b =
  let vs = voltage x s in
  buf.(0) <- polar p (voltage x g) vs;
  buf.(1) <- polar p (voltage x d) vs;
  buf.(2) <- polar p (voltage x b) vs

let op_with buf (model : Mosfet.model) ~w ~l ~d ~g ~s ~b x =
  set_bias buf model.polarity x ~d ~g ~s ~b;
  Mosfet.eval_with buf model ~w ~l ~vgs:buf.(0) ~vds:buf.(1) ~vbs:buf.(2)
let mos_operating_point model ~w ~l ~d ~g ~s ~b x =
  op_with (Mosfet.buffer ()) model ~w ~l ~d ~g ~s ~b x

(* built back to front, so that the list comes out in device order
   without a reversed copy; every device evaluates in one buffer *)
let mos_operating_points ?models circuit ~x =
  let devices = Circuit.devices circuit in
  let buf = Mosfet.buffer () in
  let acc = ref [] in
  for di = Array.length devices - 1 downto 0 do
    match devices.(di) with
    | Device.Mosfet { name; d; g; s; b; model; w; l } ->
        let model = model_override models di model in
        acc := (name, op_with buf model ~w ~l ~d ~g ~s ~b x) :: !acc
    | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
    | Device.Isource _ | Device.Vccs _ ->
        ()
  done;
  !acc

(* The AC right-hand side's entries, with the floats Complex.add and a
   fresh record give, but no record allocated for an entry that keeps
   the bits it had: a source with no AC magnitude costs nothing. *)
let zero_pos = { Complex.re = 0.; im = 0. }

let zero_neg = { Complex.re = -0.; im = 0. }

let[@inline] same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let complex_of_real negate a =
  let re = if negate then -.a else a in
  if same_bits re 0. then zero_pos
  else if same_bits re (-0.) then zero_neg
  else { Complex.re; im = 0. }

let add_complex (z : Complex.t) (a : Complex.t) =
  let re = z.re +. a.re and im = z.im +. a.im in
  if same_bits re z.re && same_bits im z.im then z else { Complex.re; im }

(* where the AC assembly takes each MOSFET's small-signal model from *)
type small_signal =
  | Operating_points of (string -> Mosfet.op)
  | Solution of { models : models option; sizes : sizes option; x : Vec.t }

(* the one AC assembly: the pencil into [cs], the right-hand side into
   [rhs] (filled with zeros first, as a fresh one); a MOSFET's seven
   values come from its operating point, or from its small-signal model
   evaluated in [buf] at the solution *)
let assemble_ac_rhs (cs : Linsys.complex_sys) circuit l ~buf src rhs =
  let p = bound l cs.Linsys.cowner in
  let devices = devices_of p circuit in
  cs.Linsys.creset ();
  let gv = cs.Linsys.gvalues and cv = cs.Linsys.cvalues in
  Array.fill rhs 0 (Array.length rhs) Complex.zero;
  for di = 0 to Array.length devices - 1 do
    let sl = p.slots.(di) and dev = devices.(di) in
    stamp_linear_ac gv cv sl dev;
    source_ac ~lift:complex_of_real ~add:add_complex rhs ~branch:p.branch.(di)
      dev;
    match dev with
    | Device.Mosfet { name; d; g; s; b; model; w; l = len } -> (
        match src with
        | Operating_points ops ->
            let op : Mosfet.op = ops name in
            stamp_mos_g gv sl ~gm:op.gm ~gds:op.gds ~gmb:op.gmb;
            stamp_mos_c cv sl ~cgs:op.cgs ~cgd:op.cgd ~cdb:op.cdb ~csb:op.csb
        | Solution { models; sizes; x } ->
            let model = model_override models di model in
            set_bias buf model.polarity x ~d ~g ~s ~b;
            sized Mosfet.small_signal Mosfet.small_signal_at model sizes di ~w
              ~l:len buf;
            stamp_mos_g gv sl ~gm:buf.(4) ~gds:buf.(5) ~gmb:buf.(6);
            stamp_mos_c cv sl ~cgs:buf.(0) ~cgd:buf.(1) ~cdb:buf.(2)
              ~csb:buf.(2))
    | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
    | Device.Isource _ | Device.Vccs _ ->
        ()
  done;
  stamp_diag gv p.diag leak

let assemble_ac_into cs circuit l ~ops =
  let rhs = Array.make l.size Complex.zero in
  assemble_ac_rhs cs circuit l ~buf:[||] (Operating_points ops) rhs;
  rhs

let assemble_ac w circuit l src =
  assemble_ac_rhs w.cs circuit l ~buf:w.ss src w.crhs
