(* Reference for the bit-exact assembly tests in t_mna.ml: the MOSFET model
   and the MNA assembly as they were before Mna compiled a stamp plan per
   topology.  [eval] returns the same record as Mosfet.eval, built from a
   7-tuple forward evaluation that calls softplus twice per EKV term;
   [assemble_dc_into] and [assemble_ac_into] stamp every device through the
   workspace's [add] closures, finding each entry's slot on every call.
   Mna must reproduce every assembled value bit and every right-hand-side
   bit of this copy, and Mosfet.eval every field.  Do not optimise. *)

module Vec = Yield_numeric.Vec
module Linsys = Yield_numeric.Linsys
module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Mna = Yield_spice.Mna
module Mosfet = Yield_spice.Mosfet

(* ---------- the EKV model ---------- *)

let softplus x = if x > 40. then x else if x < -40. then exp x else log (1. +. exp x)

let sigmoid x =
  if x > 40. then 1. else if x < -40. then exp x else 1. /. (1. +. exp (-.x))

let ekv_f x =
  let s = softplus (x /. 2.) in
  s *. s

let ekv_f' x = softplus (x /. 2.) *. sigmoid (x /. 2.)

let eval_forward (m : Mosfet.model) ~w ~l ~vgs ~vds ~vbs =
  let vt = Mosfet.temperature_voltage in
  let n = m.n_slope in
  let sarg = Float.max 0.05 (m.phi -. vbs) in
  let vth = m.vth0 +. (m.gamma *. (sqrt sarg -. sqrt m.phi)) in
  let dvth_dvbs = -.(m.gamma /. (2. *. sqrt sarg)) in
  let lambda = m.lambda0 /. (l *. 1e6) in
  let beta = m.kp *. w /. l in
  let i0 = 2. *. n *. beta *. vt *. vt in
  let a = (vgs -. vth) /. (n *. vt) in
  let b = (vgs -. vth -. (n *. vds)) /. (n *. vt) in
  let fa = ekv_f a and fb = ekv_f b in
  let fa' = ekv_f' a and fb' = ekv_f' b in
  let clm = 1. +. (lambda *. vds) in
  let base = i0 *. (fa -. fb) in
  let ids = base *. clm in
  let gm = i0 *. (fa' -. fb') /. (n *. vt) *. clm in
  let gds = (i0 *. fb' /. vt *. clm) +. (base *. lambda) in
  let gmb = -.gm *. dvth_dvbs in
  let vdsat = Float.max (2. *. vt) ((vgs -. vth) /. n) in
  let region =
    if vgs -. vth < -3. *. n *. vt then Mosfet.Cutoff
    else if vgs -. vth < 3. *. n *. vt then Mosfet.Weak
    else if vds > vdsat then Mosfet.Saturation
    else Mosfet.Triode
  in
  (ids, gm, gds, gmb, vth, vdsat, region)

let eval (m : Mosfet.model) ~w ~l ~vgs ~vds ~vbs =
  if w <= 0. || l <= 0. then invalid_arg "Mosfet.eval: non-positive geometry";
  let reversed = vds < 0. in
  let vgs', vds', vbs' =
    if reversed then (vgs -. vds, -.vds, vbs -. vds) else (vgs, vds, vbs)
  in
  let ids, gm, gds, gmb, vth, vdsat, region =
    eval_forward m ~w ~l ~vgs:vgs' ~vds:vds' ~vbs:vbs'
  in
  let ids, gm, gds, gmb =
    if reversed then (-.ids, -.gm, gm +. gds +. gmb, -.gmb)
    else (ids, gm, gds, gmb)
  in
  let cox_total = m.cox *. w *. l in
  let vt = Mosfet.temperature_voltage in
  let inversion = sigmoid ((vgs' -. vth) /. (2. *. m.n_slope *. vt)) in
  let saturated = sigmoid ((vds' -. vdsat) /. (2. *. vt)) in
  let cgs_i =
    cox_total *. inversion
    *. ((2. /. 3. *. saturated) +. (0.5 *. (1. -. saturated)))
  in
  let cgd_i = cox_total *. inversion *. 0.5 *. (1. -. saturated) in
  let cgs_f = cgs_i +. (m.cgso *. w) in
  let cgd_f = cgd_i +. (m.cgdo *. w) in
  let cgs, cgd = if reversed then (cgd_f, cgs_f) else (cgs_f, cgd_f) in
  let cjunction = (m.cj *. w *. m.ext) +. (m.cjsw *. ((2. *. m.ext) +. w)) in
  {
    Mosfet.ids;
    gm;
    gds;
    gmb;
    vth;
    vdsat;
    vgs;
    vds;
    vbs;
    region;
    cgs;
    cgd;
    cdb = cjunction;
    csb = cjunction;
  }

(* ---------- closure-based assembly ---------- *)

let voltage x n = if n = Device.ground then 0. else x.(n - 1)

let stamp_g_into add a b g =
  if a <> Device.ground then add (a - 1) (a - 1) g;
  if b <> Device.ground then add (b - 1) (b - 1) g;
  if a <> Device.ground && b <> Device.ground then begin
    add (a - 1) (b - 1) (-.g);
    add (b - 1) (a - 1) (-.g)
  end

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

let stamp_branch_into add br ~npos ~nneg =
  if npos <> Device.ground then begin
    add (npos - 1) br 1.;
    add br (npos - 1) 1.
  end;
  if nneg <> Device.ground then begin
    add (nneg - 1) br (-1.);
    add br (nneg - 1) (-1.)
  end

let stamp_mosfet_dc_into add rhs ~x ~d ~g:gate ~s ~b ~(model : Mosfet.model) ~w
    ~l =
  let vd = voltage x d
  and vg = voltage x gate
  and vs = voltage x s
  and vb = voltage x b in
  let vgs, vds, vbs =
    match model.polarity with
    | Mosfet.Nmos -> (vg -. vs, vd -. vs, vb -. vs)
    | Mosfet.Pmos -> (vs -. vg, vs -. vd, vs -. vb)
  in
  let op = eval model ~w ~l ~vgs ~vds ~vbs in
  let ids_eff =
    match model.polarity with Mosfet.Nmos -> op.ids | Mosfet.Pmos -> -.op.ids
  in
  let gm = op.gm and gds = op.gds and gmb = op.gmb in
  stamp_gm_into add d s gate s gm;
  stamp_g_into add d s gds;
  stamp_gm_into add d s b s gmb;
  let linear_current =
    (gm *. (vg -. vs)) +. (gds *. (vd -. vs)) +. (gmb *. (vb -. vs))
  in
  let ieq = linear_current -. ids_eff in
  inject rhs d ieq;
  inject rhs s (-.ieq)

let assemble_dc_into (rs : Linsys.real) ?models circuit layout ~x
    ~source_scale ~gmin =
  rs.Linsys.reset ();
  let add = rs.Linsys.add in
  let rhs = Vec.create (Mna.size layout) in
  for i = 0 to Mna.n_nodes layout - 1 do
    add i i gmin
  done;
  Array.iteri
    (fun di dev ->
      match dev with
      | Device.Resistor { n1; n2; ohms; _ } -> stamp_g_into add n1 n2 (1. /. ohms)
      | Device.Capacitor _ -> ()
      | Device.Vsource { name; npos; nneg; dc; _ } ->
          let br = Mna.branch_index layout name in
          stamp_branch_into add br ~npos ~nneg;
          rhs.(br) <- dc *. source_scale
      | Device.Isource { npos; nneg; dc; _ } ->
          inject rhs npos (-.dc *. source_scale);
          inject rhs nneg (dc *. source_scale)
      | Device.Vccs { out_p; out_n; in_p; in_n; gm; _ } ->
          stamp_gm_into add out_p out_n in_p in_n gm
      | Device.Mosfet { d; g; s; b; model; w; l; _ } ->
          (* a sample's models as the record they stand for *)
          let model =
            match models with
            | None -> model
            | Some (p : Mna.models) ->
                let at = 3 * di in
                { model with Mosfet.vth0 = p.(at); kp = p.(at + 1); lambda0 = p.(at + 2) }
          in
          stamp_mosfet_dc_into add rhs ~x ~d ~g ~s ~b ~model ~w ~l)
    (Circuit.devices circuit);
  rhs

let assemble_ac_into (cs : Linsys.complex_sys) circuit layout ~ops =
  cs.Linsys.creset ();
  let add_g = cs.Linsys.add_g and add_c = cs.Linsys.add_c in
  let rhs = Array.make (Mna.size layout) Complex.zero in
  Array.iter
    (fun dev ->
      match dev with
      | Device.Resistor { n1; n2; ohms; _ } ->
          stamp_g_into add_g n1 n2 (1. /. ohms)
      | Device.Capacitor { n1; n2; farads; _ } -> stamp_g_into add_c n1 n2 farads
      | Device.Vsource { name; npos; nneg; ac; _ } ->
          let br = Mna.branch_index layout name in
          stamp_branch_into add_g br ~npos ~nneg;
          rhs.(br) <- { Complex.re = ac; im = 0. }
      | Device.Isource { npos; nneg; ac; _ } ->
          if npos <> Device.ground then
            rhs.(npos - 1) <-
              Complex.add rhs.(npos - 1) { Complex.re = -.ac; im = 0. };
          if nneg <> Device.ground then
            rhs.(nneg - 1) <-
              Complex.add rhs.(nneg - 1) { Complex.re = ac; im = 0. }
      | Device.Vccs { out_p; out_n; in_p; in_n; gm; _ } ->
          stamp_gm_into add_g out_p out_n in_p in_n gm
      | Device.Mosfet { name; d; g; s; b; _ } ->
          let op : Mosfet.op = ops name in
          stamp_gm_into add_g d s g s op.gm;
          stamp_g_into add_g d s op.gds;
          stamp_gm_into add_g d s b s op.gmb;
          stamp_g_into add_c g s op.cgs;
          stamp_g_into add_c g d op.cgd;
          stamp_g_into add_c d b op.cdb;
          stamp_g_into add_c s b op.csb)
    (Circuit.devices circuit);
  for i = 0 to Mna.n_nodes layout - 1 do
    add_g i i 1e-12
  done;
  rhs
