(* Corner-aware abstract interpretation: interval transfer functions of the
   DC operating point and the AC small-signal model over the process
   variation box.

   Soundness strategy.  The Monte Carlo pipeline is a floating-point
   program; the claim "every sample in the box lands inside the enclosure"
   is about ITS results, not about exact real arithmetic.  The device
   equations and the MNA stamps are not restated here: {!Device_interval}
   is the simulator's own text (lib/spice/device_body.ml and
   stamp_body.ml) built over outward-rounded intervals ({!Interval}), so
   each float operation of a sample is an interval operation here on
   operands that contain its own.  If each float input of an operation
   lies inside the corresponding interval, the float result (one rounding
   of the exact result of contained operands) lies inside the
   one-ulp-widened interval result, and the containment survives by
   induction over the shared operation tree.  Library transcendentals
   (exp/log/atan2/Complex.norm) are not correctly rounded, so their
   interval images carry a few extra ulps of widening.  The response
   measures below (magnitude, phase, crossing bracket) are written here
   against Measure's definitions.  Two steps are not elementwise float
   operations and carry small documented pads instead:

   - the sampled DC solve is a damped Newton iteration converging to vtol
     (1e-9 V); the Krawczyk enclosure bounds the true solutions over the
     box and is padded by 1e-6 per unknown to cover the Newton truncation;
   - the sampled AC solve is an LU factorisation; the residual-iteration
     enclosure bounds the true solutions over the box and the response
     rectangle is padded by 1e-5 relative to cover the LU forward error.

   Both pads are validated by the seeded soundness property test
   (test/t_corner.ml) against thousands of Monte Carlo evaluations. *)

module I = Interval
module Vec = Yield_numeric.Vec
module Mat = Yield_numeric.Mat
module Lu = Yield_numeric.Lu
module Cmat = Yield_numeric.Cmat
module Linsys = Yield_numeric.Linsys
module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Mosfet = Yield_spice.Mosfet
module Mna = Yield_spice.Mna
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Elab = Yield_spice.Netlist_elab
module Variation = Yield_process.Variation

type window = { min_gain_db : float; min_pm_deg : float }

type verdict = Provably_fail | Provably_pass | Undecided

let verdict_to_string = function
  | Provably_fail -> "provably-fail"
  | Provably_pass -> "provably-pass"
  | Undecided -> "undecided"

type enclosure = {
  gain_db : I.t option;
  unity_gain_hz : I.t option;
  pm_deg : I.t option;
}

type device_proof = { device : string; proved : bool; detail : string }

type report = {
  verdict : verdict;
  enclosure : enclosure;
  dc_verified : bool;
  devices : device_proof list;
  slices : (I.t * I.t) list;
  notes : string list;
}

(* ---------- interval scalar helpers ---------- *)

let ipt = I.point

let mag (i : I.t) = Float.max (Float.abs i.I.lo) (Float.abs i.I.hi)

(* the image of [Float.max c], endpointwise (Float.max is exact, no
   widening needed) *)
let i_max_const c (i : I.t) = I.make (Float.max c i.I.lo) (Float.max c i.I.hi)

let pad_abs d (i : I.t) = I.make (i.I.lo -. d) (i.I.hi +. d)

(* ---------- complex rectangles ---------- *)

(* a rectangle { re + j im } with interval components; enough structure for
   the residual iteration of the AC solve *)
type ci = { cre : I.t; cim : I.t }

let ci_zero = { cre = I.zero; cim = I.zero }

let ci_of_complex (z : Complex.t) = { cre = ipt z.Complex.re; cim = ipt z.Complex.im }

let ci_add a b = { cre = I.add a.cre b.cre; cim = I.add a.cim b.cim }

let ci_sub a b = { cre = I.sub a.cre b.cre; cim = I.sub a.cim b.cim }

let ci_mul a b =
  {
    cre = I.sub (I.mul a.cre b.cre) (I.mul a.cim b.cim);
    cim = I.add (I.mul a.cre b.cim) (I.mul a.cim b.cre);
  }

(* ---------- interval MOS operating points ---------- *)

module D = Device_interval

(* per-device model parameters as intervals over the truncated variation box *)
type imodel = { base : Mosfet.model; m_vth0 : I.t; m_kp : I.t; m_lambda0 : I.t }

(* One sub-box of the variation space.  The global dVth axes are the wide,
   shared ones — they move every threshold of a polarity together and are
   what breaks the Krawczyk contraction when taken whole (the EKV currents
   are exponential in vth near weak inversion, so the interval Jacobian
   blows up as e^(k sigma / nVT)).  They are the axes worth subdividing;
   the mismatch, kp and lambda axes are narrow and ride along whole. *)
type slice = { s_n : I.t; s_p : I.t }

let imodel_of ~k ~spec ~slice (m : Mosfet.model) ~w ~l =
  let g = spec.Variation.global in
  let gvth, sg_kp =
    match m.Mosfet.polarity with
    | Mosfet.Nmos -> (slice.s_n, g.Variation.sigma_kp_rel_n)
    | Mosfet.Pmos -> (slice.s_p, g.Variation.sigma_kp_rel_p)
  in
  let sm_vth = Variation.mismatch_sigma_vth spec m.Mosfet.polarity ~w ~l in
  let sm_beta = Variation.mismatch_sigma_beta spec m.Mosfet.polarity ~w ~l in
  let kk = I.of_bounds (-.k) k in
  (* a sample's delta is z_g * sigma_g +. z_m * sigma_m with |z| <= k; the
     global vth part is restricted to this slice's range *)
  let dvth = I.add gvth (I.mul kk (ipt sm_vth)) in
  let dkp_rel = I.add (I.mul kk (ipt sg_kp)) (I.mul kk (ipt sm_beta)) in
  let dlambda_rel = I.mul kk (ipt g.Variation.sigma_lambda_rel) in
  {
    base = m;
    m_vth0 = D.perturbed_vth0 m dvth;
    m_kp = D.perturbed_kp m dkp_rel;
    m_lambda0 = D.perturbed_lambda0 m dlambda_rel;
  }

(* interval operating point; [o_strong]/[o_sat] are the operating-region
   margins of the forward branch, for the D-code proofs.  [o_dlam] is the
   partial derivative of the drain current w.r.t. the relative lambda
   delta, for the parametric residual form. *)
type iop = {
  o_ids : I.t;
  o_gm : I.t;
  o_gds : I.t;
  o_gmb : I.t;
  o_cgs : I.t;
  o_cgd : I.t;
  o_cdb : I.t;
  o_csb : I.t;
  o_dlam : I.t;
  o_strong : I.t;
  o_sat : I.t;
  o_reversible : bool;
}

let hull_iop p q =
  {
    o_ids = I.hull p.o_ids q.o_ids;
    o_gm = I.hull p.o_gm q.o_gm;
    o_gds = I.hull p.o_gds q.o_gds;
    o_gmb = I.hull p.o_gmb q.o_gmb;
    o_cgs = I.hull p.o_cgs q.o_cgs;
    o_cgd = I.hull p.o_cgd q.o_cgd;
    o_cdb = I.hull p.o_cdb q.o_cdb;
    o_csb = I.hull p.o_csb q.o_csb;
    o_dlam = I.hull p.o_dlam q.o_dlam;
    o_strong = I.hull p.o_strong q.o_strong;
    o_sat = I.hull p.o_sat q.o_sat;
    o_reversible = true;
  }

(* The device's interval operating point: [Device_interval]'s EKV device
   and Meyer capacitances, which reverse source and drain on vds < 0 as
   the simulator does.  A vds range straddling zero is split into a
   non-negative and a negative part, each evaluated, then hulled. *)
let eval_i (im : imodel) ~w ~l ~vgs ~vds ~vbs =
  let branch vds_b =
    let m = im.base in
    (* a tenth slot receives d ids / d lambda0 *)
    let buf = Array.append [| vgs; vds_b; vbs |] (Array.make 7 I.zero) in
    let reversed =
      D.ekv_into m ~vth0:im.m_vth0 ~kp:im.m_kp ~lambda0:im.m_lambda0 ~w ~l buf
    in
    let vt = Mosfet.temperature_voltage in
    (* the forward device's region margins, for the D-code proofs *)
    let strong = I.sub (I.sub buf.(0) buf.(7)) (ipt (3. *. m.Mosfet.n_slope *. vt)) in
    let sat = I.sub buf.(1) buf.(8) in
    (* d ids / d dlambda_rel = lambda0 d ids / d lambda0 *)
    let dlam = I.scale m.Mosfet.lambda0 buf.(9) in
    let ids = buf.(3) and gm = buf.(4) and gds = buf.(5) and gmb = buf.(6) in
    D.meyer_into m ~w ~l ~reversed buf;
    {
      o_ids = ids;
      o_gm = gm;
      o_gds = gds;
      o_gmb = gmb;
      o_cgs = buf.(0);
      o_cgd = buf.(1);
      o_cdb = buf.(2);
      o_csb = buf.(2);
      o_dlam = dlam;
      o_strong = strong;
      o_sat = sat;
      o_reversible = reversed;
    }
  in
  (* the simulator reverses on vds < 0 strictly *)
  let fwd = Option.map branch (I.intersect vds (I.make 0. infinity)) in
  let rev =
    Option.map branch (I.intersect vds (I.make neg_infinity (Float.pred 0.)))
  in
  match (fwd, rev) with
  | Some a, Some b -> hull_iop a b
  | Some a, None -> a
  | None, Some b -> b
  | None, None -> assert false

(* ---------- MOS entries and interval MNA assembly ---------- *)

type mos_entry = {
  e_index : int;  (** position in [Circuit.devices] *)
  e_name : string;
  e_d : Device.node;
  e_g : Device.node;
  e_s : Device.node;
  e_b : Device.node;
  e_model : Mosfet.model;
  e_w : float;
  e_l : float;
  e_imodel : imodel;
}

(* one entry per MOSFET, its parameter box given by [imodel] *)
let mos_entries ~imodel circuit =
  Array.to_list (Circuit.devices circuit)
  |> List.mapi (fun di dev -> (di, dev))
  |> List.filter_map (fun (di, dev) ->
         match dev with
         | Device.Mosfet { name; d; g; s; b; model; w; l } ->
             Some
               {
                 e_index = di;
                 e_name = name;
                 e_d = d;
                 e_g = g;
                 e_s = s;
                 e_b = b;
                 e_model = model;
                 e_w = w;
                 e_l = l;
                 e_imodel = imodel model ~w ~l;
               }
         | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
         | Device.Isource _ | Device.Vccs _ ->
             None)

(* the interval operating point at the node voltages [x] and the drain
   current, through the stamps' polarity flip *)
let mos_iop_at (e : mos_entry) (x : I.t array) =
  let v n = if n = Device.ground then I.zero else x.(n - 1) in
  let vd = v e.e_d and vg = v e.e_g and vs = v e.e_s and vb = v e.e_b in
  let p = e.e_model.Mosfet.polarity in
  let op =
    eval_i e.e_imodel ~w:e.e_w ~l:e.e_l ~vgs:(D.polar p vg vs)
      ~vds:(D.polar p vd vs) ~vbs:(D.polar p vb vs)
  in
  (op, D.drain_current p op.o_ids)

(* The parameter-independent DC system: gmin leaks, resistors, source
   branches and values, VCCS.  MOSFETs enter the residual and the Jacobian
   separately.  It replays the stamp plan of [layout]'s dense sys through
   the interval stamps into flat n x n arrays, at the sys's slot i*n + j. *)
let assemble_linear_dc circuit layout ~gmin =
  let n = Mna.size layout in
  let p = Mna.plan layout in
  let a = Array.make (n * n) I.zero in
  let b = Array.make n I.zero in
  D.stamp_diag a p.Mna.diag (ipt gmin);
  Array.iteri
    (fun di dev ->
      D.stamp_linear_dc a p.Mna.slots.(di) dev;
      D.source_dc b ~branch:p.Mna.branch.(di) dev ~scale:(ipt 1.))
    (Circuit.devices circuit);
  (a, b)

(* interval KCL residual F(x) = A0 x - b0 + sum ids_eff (e_d - e_s) *)
let residual ~lin:(a0, b0) ~moses x =
  let n = Array.length b0 in
  let r =
    Array.init n (fun i ->
        let acc = ref (I.neg b0.(i)) in
        for j = 0 to n - 1 do
          acc := I.add !acc (I.mul a0.((i * n) + j) x.(j))
        done;
        !acc)
  in
  List.iter
    (fun e ->
      let _, ids_eff = mos_iop_at e x in
      D.inject r e.e_d ids_eff;
      D.inject r e.e_s (I.neg ids_eff))
    moses;
  r

(* slop on the verified DC enclosure: the sampled Newton solves stop at
   vtol = 1e-9 V of step size, so their iterates sit near but not exactly
   on the true solutions the Krawczyk box bounds *)
let dc_pad = 1e-6

(* a parameter box that is the (already slice-centred) model point:
   evaluating the residual with such entries at the Newton solution x0
   yields F(x0, p_mid), which is rounding-noise wide *)
let point_imodel (model : Mosfet.model) ~w:_ ~l:_ =
  {
    base = model;
    m_vth0 = ipt model.Mosfet.vth0;
    m_kp = ipt model.Mosfet.kp;
    m_lambda0 = ipt model.Mosfet.lambda0;
  }

(* One independent direction of the parameter box: [a_delta] is its centred
   range and [a_dev] the enclosure of d ids_eff / d axis for each MOS
   entry (moses order; zero when the device does not depend on the axis).
   A device's current enters KCL rows d and s with opposite signs, so any
   Y-weighted sum over such a direction collapses to (Y_id - Y_is) times
   one shared interval per device — the structure that keeps the widths
   below second order instead of multiplying them by the circuit gain. *)
type dcontrib = { c_gm : float; c_rest : I.t }
type daxis = { a_delta : I.t; a_dev : dcontrib list }

let c_zero = { c_gm = 0.; c_rest = I.zero }

(* The interval operating point of every entry at [x], plus the parameter
   axes with their partials there, for the residual's mean-value form
   F(x0, p) in F(x0, p_mid) + sum_q dF/dp_q(box) (p_q - p_mid_q).
   Per-device partials: d ids_eff / d dvth = -s gm (EKV currents depend on
   vth only through vgs - vth), d ids_eff / d dkp_rel = ids_eff / (1 +
   dkp_rel_total) (currents are linear in kp), d ids_eff / d dlambda_rel
   from the channel-length-modulation term; s = +/-1 is the polarity sign
   of Mna's ids_eff = s * ids convention, and every partial is evaluated
   through the same branch split/hull as the currents themselves. *)
let axis_data ~k ~spec ~slice ~moses ~x =
  let kk = I.of_bounds (-.k) k in
  let g = spec.Variation.global in
  let per_dev =
    List.map
      (fun e ->
        let op0, ids_eff0 = mos_iop_at e x in
        let pol = e.e_model.Mosfet.polarity in
        let s_pol, sg_kp =
          match pol with
          | Mosfet.Nmos -> (1., g.Variation.sigma_kp_rel_n)
          | Mosfet.Pmos -> (-1., g.Variation.sigma_kp_rel_p)
        in
        let sm_vth = Variation.mismatch_sigma_vth spec pol ~w:e.e_w ~l:e.e_l in
        let sm_beta = Variation.mismatch_sigma_beta spec pol ~w:e.e_w ~l:e.e_l in
        let dkp_tot = I.add (I.mul kk (ipt sg_kp)) (I.mul kk (ipt sm_beta)) in
        (* d ids_eff / d dvth = -s gm is kept factored as a coefficient on
           the device's own gm ([c_gm]): in the mean-value weights it then
           merges with the gm stamp term gm (s_g - s_s), whose true value
           nearly cancels against it for diode-connected devices -- two
           separate interval products would double the width instead *)
        let d_vth = { c_gm = -.s_pol; c_rest = I.zero } in
        let d_kp =
          { c_gm = 0.; c_rest = I.div ids_eff0 (I.add (ipt 1.) dkp_tot) }
        in
        let d_lam = { c_gm = 0.; c_rest = I.scale s_pol op0.o_dlam } in
        (e, op0, sm_vth, sm_beta, d_vth, d_kp, d_lam))
      moses
  in
  let pol (e : mos_entry) = e.e_model.Mosfet.polarity in
  let d_vth_of (_, _, _, _, d, _, _) = d in
  let d_kp_of (_, _, _, _, _, d, _) = d in
  let by_pol want delta sel =
    if List.exists (fun (e, _, _, _, _, _, _) -> pol e = want) per_dev then
      [
        {
          a_delta = delta;
          a_dev =
            List.map
              (fun ((e, _, _, _, _, _, _) as pd) ->
                if pol e = want then sel pd else c_zero)
              per_dev;
        };
      ]
    else []
  in
  let lam =
    if per_dev = [] then []
    else
      [
        {
          a_delta = I.mul kk (ipt g.Variation.sigma_lambda_rel);
          a_dev = List.map (fun (_, _, _, _, _, _, d) -> d) per_dev;
        };
      ]
  in
  let mism =
    List.concat_map
      (fun (e, _, sm_vth, sm_beta, d_vth, d_kp, _) ->
        let solo d =
          List.map
            (fun (e', _, _, _, _, _, _) -> if e' == e then d else c_zero)
            per_dev
        in
        [
          { a_delta = I.mul kk (ipt sm_vth); a_dev = solo d_vth };
          { a_delta = I.mul kk (ipt sm_beta); a_dev = solo d_kp };
        ])
      per_dev
  in
  (* same midpoint expression shift_circuit centred the models at, so the
     centred global ranges line up with F(x0, p_mid) *)
  let mid (i : I.t) = ipt (0.5 *. (i.I.lo +. i.I.hi)) in
  let axes =
    by_pol Mosfet.Nmos (I.sub slice.s_n (mid slice.s_n)) d_vth_of
    @ by_pol Mosfet.Pmos (I.sub slice.s_p (mid slice.s_p)) d_vth_of
    @ by_pol Mosfet.Nmos (I.mul kk (ipt g.Variation.sigma_kp_rel_n)) d_kp_of
    @ by_pol Mosfet.Pmos (I.mul kk (ipt g.Variation.sigma_kp_rel_p)) d_kp_of
    @ lam @ mism
  in
  (List.map (fun (_, op, _, _, _, _, _) -> op) per_dev, axes)

(* Parametric Krawczyk verification of the DC solution over the box, in
   first-order Taylor-model form.  A plain box Krawczyk cannot contract
   here: the candidate box must contain the genuine solution spread (the
   mismatch axes drive node voltages tens of millivolts), and over a box
   that wide the interval term (I - Y J(X)) (X - x0) amplifies instead of
   contracting.  So the first-order parameter dependence is peeled off
   analytically: substitute

     x = x0 + S dp + u,   S = -Y dF/dp|_mid  (float sensitivity columns)

   and verify only the second-order remainder u with the Krawczyk operator

     K(U) = -Y G0 + (I - Y J(X' )) U,   X' = x0 + S dp + U,

   where Y G0 encloses Y F(x0 + S dp, p) axis by axis through the
   mean-value form: Y F(x0, p_mid) + sum_q Y (J(X0') s_q + dF/dp_q) dp_q.
   The bracket is a near-cancellation (Y J s_q ~ -s_q ~ -Y dF/dp_q), so
   the residual really is second order; summing through Y per axis before
   multiplying by the shared axis range also keeps the correlation of the
   global axes (a common-mode vth shift largely cancels through matched
   structures).  K(U) strictly inside U proves each parameter combination
   in the box has exactly one solution through the tube, and the box hull
   x0 + S dp + K(U) encloses them all. *)
let krawczyk rs circuit layout ~lin ~moses ~k ~spec ~slice ~x0 =
  let n = Mna.size layout in
  (* the Newton Jacobian at x0, read from the dense workspace [rs] of the
     layout's sys, whose value slots are row-major *)
  ignore (Mna.assemble_dc_into rs circuit layout ~x:x0 ~source_scale:1. ~gmin:1e-12);
  let values = rs.Linsys.values in
  let gmat = Mat.init n n (fun i j -> values.((i * n) + j)) in
  let lu = Lu.factor gmat in
  let ycols =
    Array.init n (fun j ->
        let e = Vec.create n in
        e.(j) <- 1.;
        Lu.solve lu e)
  in
  let yv i j = ycols.(j).(i) in
  let yat i node = if node = Device.ground then 0. else yv i (node - 1) in
  let ydiff i (e : mos_entry) = I.sub (ipt (yat i e.e_d)) (ipt (yat i e.e_s)) in
  let x0i = Array.map ipt x0 in
  let pts = mos_entries ~imodel:point_imodel circuit in
  let f0mid = residual ~lin ~moses:pts x0i in
  let yf0mid =
    Array.init n (fun i ->
        let acc = ref I.zero in
        for j = 0 to n - 1 do
          acc := I.add !acc (I.scale (yv i j) f0mid.(j))
        done;
        !acc)
  in
  (* axis partials at the centre point give the float sensitivities S *)
  let ops_c, axes0 = axis_data ~k ~spec ~slice ~moses ~x:x0i in
  let sens =
    List.map
      (fun ax ->
        let s = Array.make n 0. in
        List.iter2
          (fun ((e : mos_entry), (op : iop)) (c : dcontrib) ->
            let mid (i : I.t) = 0.5 *. (i.I.lo +. i.I.hi) in
            let dm = (c.c_gm *. mid op.o_gm) +. mid c.c_rest in
            if dm <> 0. then
              for i = 0 to n - 1 do
                s.(i) <- s.(i) -. ((yat i e.e_d -. yat i e.e_s) *. dm)
              done)
          (List.combine moses ops_c)
          ax.a_dev;
        (ax, s))
      axes0
  in
  (* the first-order tube x0 + S dp, as a box *)
  let xspan =
    Array.init n (fun m ->
        List.fold_left
          (fun acc (ax, s) -> I.add acc (I.scale s.(m) ax.a_delta))
          (ipt x0.(m)) sens)
  in
  (* mean-value partials and operating points over the tube (the segments
     from (x0, p_mid) to (x0 + S dp, p) all live inside xspan x box) *)
  let ops_sp, axes_sp = axis_data ~k ~spec ~slice ~moses ~x:xspan in
  let a0 = fst lin in
  let yg0 =
    (* w_q = Y (J(X0') s_q + dF/dp_q(X0')): the A0 part of J goes through
       Y entrywise (its width is rounding noise), while the MOS stamps and
       the partial collapse per device to (Y_id - Y_is) [gm (s_g - s_s) +
       gds (s_d - s_s) + gmb (s_b - s_s) + d_dev]; the midpoints cancel
       against the A0 part (J0 s_q ~ -dF/dp_q by construction of s_q),
       leaving genuinely second-order widths *)
    let wqs =
      List.map2
        (fun (ax0, s) ax_sp ->
          let t =
            Array.init n (fun j ->
                let acc = ref I.zero in
                for m = 0 to n - 1 do
                  acc := I.add !acc (I.scale s.(m) a0.((j * n) + m))
                done;
                !acc)
          in
          let sv node = ipt (if node = Device.ground then 0. else s.(node - 1)) in
          let dev_terms =
            List.map2
              (fun ((e : mos_entry), (op : iop)) (c : dcontrib) ->
                let v =
                  I.add
                    (I.add
                       (I.mul op.o_gm
                          (I.add
                             (I.sub (sv e.e_g) (sv e.e_s))
                             (ipt c.c_gm)))
                       (I.mul op.o_gds (I.sub (sv e.e_d) (sv e.e_s))))
                    (I.add
                       (I.mul op.o_gmb (I.sub (sv e.e_b) (sv e.e_s)))
                       c.c_rest)
                in
                (e, v))
              (List.combine moses ops_sp) ax_sp.a_dev
          in
          let w =
            Array.init n (fun i ->
                let acc = ref I.zero in
                for j = 0 to n - 1 do
                  acc := I.add !acc (I.scale (yv i j) t.(j))
                done;
                List.fold_left
                  (fun acc (e, v) -> I.add acc (I.mul (ydiff i e) v))
                  !acc dev_terms)
          in
          (ax0.a_delta, w))
        sens axes_sp
    in
    Array.init n (fun i ->
        List.fold_left
          (fun acc (delta, w) -> I.add acc (I.mul w.(i) delta))
          yf0mid.(i) wqs)
  in
  (* E0 = I - Y J0 at the float Jacobian the preconditioner inverted *)
  let e0 =
    Array.init n (fun i ->
        Array.init n (fun kcol ->
            let acc = ref (if i = kcol then ipt 1. else I.zero) in
            for j = 0 to n - 1 do
              acc := I.sub !acc (I.mul (ipt (yv i j)) (ipt (Mat.get gmat j kcol)))
            done;
            !acc))
  in
  (* centre operating points the Delta-stamps subtract; at point inputs
     the interval instance contains the floats gmat was stamped from *)
  let ops0 = List.map (fun e -> fst (mos_iop_at e x0i)) pts in
  (* one Krawczyk image of a remainder box [u] (centred at zero):
     (I - Y J(X')) U = E0 U - Y (J(X') - J0) U, with the Delta-stamps
     collapsed per device like above *)
  let image u =
    let xq = Array.init n (fun m -> I.add xspan.(m) u.(m)) in
    let uv node = if node = Device.ground then I.zero else u.(node - 1) in
    let dev_terms =
      List.map2
        (fun (e : mos_entry) (op0 : iop) ->
          let op, _ = mos_iop_at e xq in
          let v =
            I.add
              (I.add
                 (I.mul (I.sub op.o_gm op0.o_gm) (I.sub (uv e.e_g) (uv e.e_s)))
                 (I.mul (I.sub op.o_gds op0.o_gds) (I.sub (uv e.e_d) (uv e.e_s))))
              (I.mul (I.sub op.o_gmb op0.o_gmb) (I.sub (uv e.e_b) (uv e.e_s)))
          in
          (e, v))
        moses ops0
    in
    Array.init n (fun i ->
        let acc = ref (I.neg yg0.(i)) in
        for kcol = 0 to n - 1 do
          acc := I.add !acc (I.mul e0.(i).(kcol) u.(kcol))
        done;
        List.fold_left
          (fun acc (e, v) -> I.sub acc (I.mul (ydiff i e) v))
          !acc dev_terms)
  in
  let interior k u =
    let ok = ref true in
    Array.iteri
      (fun i (ki : I.t) ->
        if not (ki.I.lo > u.(i).I.lo && ki.I.hi < u.(i).I.hi) then ok := false)
      k;
    !ok
  in
  (* epsilon-inflation (Rump): start at the residual radii and let the
     image rebalance them across rows -- the iteration converges to (a
     slight inflation of) the Perron-scaled fixed point r* = |yg0| +
     |A| r* whenever it exists, which a uniform scaling of |yg0| can
     miss entirely when rows contract at different rates *)
  let verify () =
    let u =
      ref
        (Array.init n (fun i ->
             let r = mag yg0.(i) +. 1e-12 in
             I.make (-.r) r))
    in
    let result = ref None in
    (try
       for _ = 1 to 25 do
         let k = image !u in
         if interior k !u then begin
           result := Some (k, !u);
           raise Exit
         end;
         u :=
           Array.init n (fun i ->
               let r = (mag k.(i) *. 1.05) +. 1e-12 in
               I.make (-.r) r)
       done
     with Exit -> ());
    !result
  in
  match verify () with
  | None -> None
  | Some (k0, u_ok) ->
      (* contract: K(U) cap U keeps enclosing every remainder; two rounds
         recover most of the over-inflation *)
      let tighten cur =
        let k = image cur in
        Array.init n (fun i ->
            match I.intersect k.(i) cur.(i) with Some t -> t | None -> cur.(i))
      in
      let b1 =
        Array.init n (fun i ->
            match I.intersect k0.(i) u_ok.(i) with Some t -> t | None -> u_ok.(i))
      in
      let b2 = tighten b1 in
      let b3 = tighten b2 in
      Some (Array.init n (fun m -> pad_abs dc_pad (I.add xspan.(m) b3.(m))))

(* ---------- AC interval solve ---------- *)

(* relative slop on the response rectangle: the sampled Cmat.solve is a
   float LU whose forward error (cond * n * eps) can reach ~1e-6 on the
   stiffest low-frequency systems; 1e-5 covers it with margin *)
let ac_slop_rel = 1e-5

(* Interval G, C and rhs: the stamp plan of [layout]'s dense sys replayed
   through the interval stamps, as Mna.assemble_ac_into replays it, with
   the MOS small-signal parameters taken from the interval operating
   points; flat n x n arrays at slot i*n + j *)
let assemble_ac_intervals circuit layout ~iops =
  let n = Mna.size layout in
  let p = Mna.plan layout in
  let g = Array.make (n * n) I.zero in
  let c = Array.make (n * n) I.zero in
  let rhs = Array.make n ci_zero in
  Array.iteri
    (fun di dev ->
      D.stamp_linear_ac g c p.Mna.slots.(di) dev;
      D.source_ac
        ~lift:(fun negate a -> { cre = ipt (if negate then -.a else a); cim = I.zero })
        ~add:ci_add rhs ~branch:p.Mna.branch.(di) dev)
    (Circuit.devices circuit);
  List.iter
    (fun ((e : mos_entry), (op : iop)) ->
      let sl = p.Mna.slots.(e.e_index) in
      D.stamp_mos_g g sl ~gm:op.o_gm ~gds:op.o_gds ~gmb:op.o_gmb;
      D.stamp_mos_c c sl ~cgs:op.o_cgs ~cgd:op.o_cgd ~cdb:op.o_cdb
        ~csb:op.o_csb)
    iops;
  D.stamp_diag g p.Mna.diag (ipt D.leak);
  (g, c, rhs)

let midpoint_mat n (a : I.t array) =
  Mat.init n n (fun i j ->
      let v = a.((i * n) + j) in
      0.5 *. (v.I.lo +. v.I.hi))

(* Rump-style verified solve of (G + jwC) x = b over the intervals at one
   frequency: xm = midpoint solve, E' = Yc (b - A xm) + (I - Yc A) E with
   epsilon inflation until E' is interior; then x in xm + E'. Returns the
   response rectangle at [out_idx], or None when verification fails. *)
let solve_freq ~n ~gint ~cint ~gmid ~cmid ~rhs_i ~rhs_c ~out_idx freq =
  let omega_f = 2. *. Float.pi *. freq in
  let omega_i = I.mul (I.mul (ipt 2.) (ipt Float.pi)) (ipt freq) in
  match
    let m = Cmat.of_real ~imag_scale:omega_f gmid cmid in
    let xm = Cmat.solve m rhs_c in
    let ycols =
      Array.init n (fun j ->
          let e = Array.make n Complex.zero in
          e.(j) <- Complex.one;
          Cmat.solve m e)
    in
    (xm, ycols)
  with
  | exception Lu.Singular _ -> None
  | xm, ycols ->
      let a i j =
        let k = (i * n) + j in
        { cre = gint.(k); cim = I.mul omega_i cint.(k) }
      in
      let yc i j = ycols.(j).(i) in
      let z0 =
        Array.init n (fun i ->
            let acc = ref rhs_i.(i) in
            for j = 0 to n - 1 do
              acc := ci_sub !acc (ci_mul (a i j) (ci_of_complex xm.(j)))
            done;
            !acc)
      in
      let z =
        Array.init n (fun i ->
            let acc = ref ci_zero in
            for j = 0 to n - 1 do
              acc := ci_add !acc (ci_mul (ci_of_complex (yc i j)) z0.(j))
            done;
            !acc)
      in
      let r =
        Array.init n (fun i ->
            Array.init n (fun k ->
                let acc = ref (if i = k then ci_of_complex Complex.one else ci_zero) in
                for j = 0 to n - 1 do
                  acc := ci_sub !acc (ci_mul (ci_of_complex (yc i j)) (a j k))
                done;
                !acc))
      in
      let inflate (i : I.t) =
        let d = (0.05 *. I.width i) +. (1e-12 *. mag i) +. 1e-300 in
        I.make (i.I.lo -. d) (i.I.hi +. d)
      in
      let interior (a : I.t) (b : I.t) = a.I.lo > b.I.lo && a.I.hi < b.I.hi in
      let rec iterate e count =
        if count > 12 then None
        else begin
          let ei = Array.map (fun v -> { cre = inflate v.cre; cim = inflate v.cim }) e in
          let e' =
            Array.init n (fun i ->
                let acc = ref z.(i) in
                for k = 0 to n - 1 do
                  acc := ci_add !acc (ci_mul r.(i).(k) ei.(k))
                done;
                !acc)
          in
          let ok = ref true in
          Array.iteri
            (fun i v ->
              if not (interior v.cre ei.(i).cre && interior v.cim ei.(i).cim) then
                ok := false)
            e';
          if !ok then Some e' else iterate e' (count + 1)
        end
      in
      (match iterate z 0 with
      | None -> None
      | Some e ->
          let h = ci_add (ci_of_complex xm.(out_idx)) e.(out_idx) in
          let s = (ac_slop_rel *. Float.max (mag h.cre) (mag h.cim)) +. 1e-300 in
          Some { cre = pad_abs s h.cre; cim = pad_abs s h.cim })

(* ---------- measures: gain, unity-gain bracket, phase margin ---------- *)

(* |H| enclosure with slack for Complex.norm's scaled evaluation *)
let norm_i (h : ci) =
  let s = I.add (I.pow_int h.cre 2) (I.pow_int h.cim 2) in
  (* outward rounding can push the lower bound of a square sum a hair
     below zero; clamp before the sqrt *)
  let s = i_max_const 0. s in
  I.widen ~ulps:8 (I.monotone_incr ~ulps:2 sqrt s)

(* dB enclosure mirroring Measure.magnitude_db (non-positive magnitudes
   collapse to -inf there) *)
let mag_db_i (norm : I.t) =
  let f m = 20. *. log10 m in
  let lo = if norm.I.lo <= 0. then neg_infinity else f norm.I.lo in
  let hi = if norm.I.hi <= 0. then neg_infinity else f norm.I.hi in
  I.widen ~ulps:8 (I.make lo hi)

(* phase enclosure via the four corners of the rectangle; valid only when
   the rectangle avoids the origin and the atan2 branch cut (left real
   axis): strictly right half-plane, or imaginary part sign-definite.  On
   such rectangles arg is edgewise monotone, so corners are extremal. *)
let iarg (h : ci) =
  if not (h.cre.I.lo > 0. || h.cim.I.lo > 0. || h.cim.I.hi < 0.) then None
  else begin
    let f re im = Float.atan2 im re *. 180. /. Float.pi in
    let vs =
      [
        f h.cre.I.lo h.cim.I.lo;
        f h.cre.I.lo h.cim.I.hi;
        f h.cre.I.hi h.cim.I.lo;
        f h.cre.I.hi h.cim.I.hi;
      ]
    in
    let lo = List.fold_left Float.min infinity vs in
    let hi = List.fold_left Float.max neg_infinity vs in
    Some (I.widen ~ulps:8 (I.make lo hi))
  end

(* interval version of Measure.phases_deg_unwrapped: sound only when the
   wrap count is provably the same for every sample at every step *)
let unwrap_i (ph : I.t array) =
  let n = Array.length ph in
  let out = Array.make n ph.(0) in
  match
    for i = 1 to n - 1 do
      let d = I.sub ph.(i) out.(i - 1) in
      let q_lo = d.I.lo /. 360. and q_hi = d.I.hi /. 360. in
      let w = Float.round q_lo in
      (* the margin from the nearest half-integer keeps Float.round of any
         contained sample diff equal to w despite the division rounding *)
      if
        Float.round q_hi <> w
        || q_lo <= w -. 0.499999
        || q_hi >= w +. 0.499999
      then raise Exit;
      out.(i) <- I.sub ph.(i) (ipt (360. *. w))
    done
  with
  | exception Exit -> None
  | () -> Some out

type measured = {
  m_gain : I.t option;
  m_fu : I.t option;
  m_pm : I.t option;
}

(* From per-frequency response rectangles to (gain, fu bracket, PM)
   enclosures, mirroring Measure's crossing/interp pipeline:
   - gain is the dB magnitude at the first frequency;
   - if index a is the first with mag.lo < 0 dB (a >= 1) and index b the
     first with mag.hi < 0 dB, every sample's first 0 dB crossing lies in
     [freqs.(a-1), freqs.(b)];
   - the sample's PM interpolates its unwrapped phase inside that bracket,
     so PM lies in 180 + hull(unwrapped phase over indices a-1 .. b). *)
let measures ~freqs (resp : ci option array) =
  let n = Array.length resp in
  let mags = Array.map (Option.map (fun h -> mag_db_i (norm_i h))) resp in
  let gain = if n = 0 then None else mags.(0) in
  let rec find_first pred i =
    if i >= n then None
    else
      match mags.(i) with
      | None -> None
      | Some (m : I.t) -> if pred m then Some i else find_first pred (i + 1)
  in
  let bracket =
    match find_first (fun m -> m.I.lo < 0.) 0 with
    | None | Some 0 -> None
    | Some a -> (
        match find_first (fun m -> m.I.hi < 0.) a with
        | None -> None
        | Some b -> Some (a, b))
  in
  match bracket with
  | None -> { m_gain = gain; m_fu = None; m_pm = None }
  | Some (a, b) ->
      (* the sampled crossing interpolates through float exp/log; a few
         ulps of widening keeps the bracket an enclosure at its endpoints *)
      let fu = I.widen ~ulps:4 (I.of_bounds freqs.(a - 1) freqs.(b)) in
      let phases =
        let arr = Array.make (b + 1) None in
        for i = 0 to b do
          arr.(i) <- Option.bind resp.(i) iarg
        done;
        if Array.for_all Option.is_some arr then
          Some (Array.map (fun o -> Option.get o) arr)
        else None
      in
      let pm =
        match phases with
        | None -> None
        | Some ph -> (
            match unwrap_i ph with
            | None -> None
            | Some unwrapped ->
                let hull = ref unwrapped.(a - 1) in
                for i = a to b do
                  hull := I.hull !hull unwrapped.(i)
                done;
                (* 1e-9 deg absolute pad: the sampled fu can exit its
                   bracket segment by an ulp, dragging a crumb of the next
                   segment's phase into the interpolation *)
                Some (pad_abs 1e-9 (I.offset 180. !hull)))
      in
      { m_gain = gain; m_fu = Some fu; m_pm = pm }

(* ---------- verdict and top-level analysis ---------- *)

let verdict_of window (enc : enclosure) =
  let fail =
    (match enc.gain_db with
    | Some (g : I.t) -> g.I.hi < window.min_gain_db
    | None -> false)
    ||
    match enc.pm_deg with
    | Some (p : I.t) -> p.I.hi < window.min_pm_deg
    | None -> false
  in
  let pass =
    match (enc.gain_db, enc.pm_deg) with
    | Some (g : I.t), Some (p : I.t) ->
        g.I.lo >= window.min_gain_db && p.I.lo >= window.min_pm_deg
    | _ -> false
  in
  if fail then Provably_fail else if pass then Provably_pass else Undecided

let proof_of k (e : mos_entry) (op : iop) =
  if op.o_reversible then
    {
      device = e.e_name;
      proved = false;
      detail = "drain-source voltage can reverse sign across the box";
    }
  else if not (op.o_strong.I.lo > 0.) then
    {
      device = e.e_name;
      proved = false;
      detail =
        Printf.sprintf
          "overdrive margin (vgs - vth - 3nVT) reaches %.3g V toward the dVth = +%g-sigma corner"
          op.o_strong.I.lo k;
    }
  else if not (op.o_sat.I.lo > 0.) then
    {
      device = e.e_name;
      proved = false;
      detail =
        Printf.sprintf
          "saturation margin (vds - vdsat) reaches %.3g V toward the dVth = -%g-sigma corner"
          op.o_sat.I.lo k;
    }
  else
    {
      device = e.e_name;
      proved = true;
      detail =
        Printf.sprintf "overdrive margin >= %.3g V, vds - vdsat >= %.3g V"
          op.o_strong.I.lo op.o_sat.I.lo;
    }

let empty_enclosure = { gain_db = None; unity_gain_hz = None; pm_deg = None }

(* ---------- global-Vth slicing ---------- *)

let has_polarity circuit pol =
  Array.exists
    (function
      | Device.Mosfet { model; _ } -> model.Mosfet.polarity = pol
      | _ -> false)
    (Circuit.devices circuit)

(* cut [range] into [m] touching sub-ranges; shared interior endpoints are
   the same floats, so the union covers the range with no gaps *)
let cut (range : I.t) m =
  let edges =
    Array.init (m + 1) (fun i ->
        if i = 0 then range.I.lo
        else if i = m then range.I.hi
        else range.I.lo +. (I.width range *. (float_of_int i /. float_of_int m)))
  in
  Array.init m (fun i -> I.of_bounds edges.(i) edges.(i + 1))

let slice_grid ~k ~spec ~need_n ~need_p m =
  let g = spec.Variation.global in
  let range sigma = I.mul (I.of_bounds (-.k) k) (ipt sigma) in
  let cuts need sigma = if need then cut (range sigma) m else [| range sigma |] in
  let ns = cuts need_n g.Variation.sigma_vth_n in
  let ps = cuts need_p g.Variation.sigma_vth_p in
  Array.to_list ns
  |> List.concat_map (fun sn ->
         Array.to_list ps |> List.map (fun sp -> { s_n = sn; s_p = sp }))

(* re-centre the circuit's models at a slice's midpoint so the per-slice
   Newton solve (and the Krawczyk preconditioner built from it) sits in the
   middle of the sub-box *)
let shift_circuit circuit slice =
  let mid (i : I.t) = 0.5 *. (i.I.lo +. i.I.hi) in
  let cn = mid slice.s_n and cp = mid slice.s_p in
  Circuit.map_devices circuit (fun dev ->
      match dev with
      | Device.Mosfet ({ model; _ } as r) ->
          let dvth =
            match model.Mosfet.polarity with Mosfet.Nmos -> cn | Mosfet.Pmos -> cp
          in
          Device.Mosfet
            { r with model = Mosfet.with_deltas model ~dvth ~dkp_rel:0. ~dlambda_rel:0. }
      | d -> d)

(* hull the per-slice interval operating points of one device, for the
   D-code proof over the whole box *)
let merge_device_iops = function
  | [] -> invalid_arg "Corner_lint.merge_device_iops: empty"
  | op :: rest ->
      List.fold_left
        (fun acc o -> { (hull_iop acc o) with o_reversible = acc.o_reversible || o.o_reversible })
        op rest

let hull_opt a b =
  match (a, b) with Some a, Some b -> Some (I.hull a b) | _ -> None

let hull_enclosure a b =
  {
    gain_db = hull_opt a.gain_db b.gain_db;
    unity_gain_hz = hull_opt a.unity_gain_hz b.unity_gain_hz;
    pm_deg = hull_opt a.pm_deg b.pm_deg;
  }

let ac_enclosures circuit layout ~iops ~freqs ~out_idx ~note =
  let n = Mna.size layout in
  let gint, cint, rhs_i = assemble_ac_intervals circuit layout ~iops in
  let gmid = midpoint_mat n gint in
  let cmid = midpoint_mat n cint in
  let rhs_c =
    Array.map
      (fun (v : ci) ->
        {
          Complex.re = 0.5 *. (v.cre.I.lo +. v.cre.I.hi);
          im = 0.5 *. (v.cim.I.lo +. v.cim.I.hi);
        })
      rhs_i
  in
  let resp =
    Array.map
      (fun freq -> solve_freq ~n ~gint ~cint ~gmid ~cmid ~rhs_i ~rhs_c ~out_idx freq)
      freqs
  in
  let missing = Array.fold_left (fun acc r -> if r = None then acc + 1 else acc) 0 resp in
  if missing > 0 then
    note
      (Printf.sprintf "AC interval solve unverified at %d of %d frequencies"
         missing (Array.length freqs));
  let m = measures ~freqs resp in
  if m.m_fu = None then note "0 dB crossing not provably bracketed";
  if m.m_fu <> None && m.m_pm = None then
    note "phase enclosure unavailable over the crossing bracket";
  { gain_db = m.m_gain; unity_gain_hz = m.m_fu; pm_deg = m.m_pm }

let analyse_circuit ?(k_sigma = 3.) ?(spec = Variation.default_spec) ~window
    ~freqs ~out circuit =
  let notes = ref [] in
  let note s = notes := s :: !notes in
  (* per-slice analyses repeat the same complaint; collapse duplicates
     (order-preserving) with a count *)
  let dedup ns =
    let seen = Hashtbl.create 8 in
    let order =
      List.filter
        (fun n ->
          if Hashtbl.mem seen n then false
          else begin
            Hashtbl.add seen n ();
            true
          end)
        ns
    in
    List.map
      (fun n ->
        let c = List.length (List.filter (( = ) n) ns) in
        if c > 1 then Printf.sprintf "%s (x%d)" n c else n)
      order
  in
  let finish ?(dc = false) ?(devices = []) ?(enclosure = empty_enclosure)
      ?(slices = []) () =
    {
      verdict = verdict_of window enclosure;
      enclosure;
      dc_verified = dc;
      devices;
      slices;
      notes = dedup (List.rev !notes);
    }
  in
  try
    (* every slice's shifted circuit shares this topology: one session *)
    let sys = Mna.sys circuit in
    let layout = Mna.sys_layout sys in
    let rs = Mna.sys_real sys in
    let lin = assemble_linear_dc circuit layout ~gmin:1e-12 in
    let need_n = has_polarity circuit Mosfet.Nmos in
    let need_p = has_polarity circuit Mosfet.Pmos in
    (* verify one slice: Newton at the slice's re-centred models, then the
       parametric Krawczyk over the slice's parameter sub-box *)
    let verify slice =
      let moses =
        mos_entries ~imodel:(imodel_of ~k:k_sigma ~spec ~slice) circuit
      in
      let shifted = shift_circuit circuit slice in
      match Dcop.solve_with_retry ~sys shifted with
      | Error e -> Error ("per-slice DC solve failed: " ^ Dcop.error_to_string e)
      | Ok sol -> (
          match
            krawczyk rs shifted layout ~lin ~moses ~k:k_sigma ~spec ~slice
              ~x0:sol.Dcop.x
          with
          | None -> Error "Krawczyk operator did not contract"
          | Some xbox -> Ok (slice, moses, xbox))
    in
    (* verify every slice of an m x m grid; Error carries the first
       failure, tagged with the level *)
    let attempt m =
      let slices = slice_grid ~k:k_sigma ~spec ~need_n ~need_p m in
      let results = List.map verify slices in
      match
        List.find_map (function Error e -> Some e | Ok _ -> None) results
      with
      | None ->
          Ok (List.map (function Ok v -> v | Error _ -> assert false) results)
      | Some err ->
          Error
            (Printf.sprintf
               "%s at %dx global-Vth subdivision: no verified DC enclosure" err
               m)
    in
    (* turn one verified level into (devices, enclosure, slices, notes);
       notes stay local so abandoned levels leave no trace *)
    let realise verified =
      let lnotes = ref [] in
      let note s = lnotes := s :: !lnotes in
      let slices = List.map (fun (s, _, _) -> (s.s_n, s.s_p)) verified in
      let per_slice_iops =
        List.map
          (fun (_, moses, xbox) ->
            List.map (fun e -> (e, fst (mos_iop_at e xbox))) moses)
          verified
      in
      (* D-proofs must hold over the union of slices: hull each device's
         interval operating point before judging it *)
      let devices =
        match per_slice_iops with
        | [] -> []
        | first :: _ ->
            List.mapi
              (fun i (e, _) ->
                let ops =
                  List.map (fun sl -> snd (List.nth sl i)) per_slice_iops
                in
                proof_of k_sigma e (merge_device_iops ops))
              first
      in
      let enclosure =
        if Array.length freqs = 0 then begin
          note "no AC sweep requested: D-codes only";
          empty_enclosure
        end
        else begin
          let nc = Circuit.node_count circuit in
          let out_node = Circuit.node circuit out in
          if out_node = Device.ground || out_node > nc then begin
            note (Printf.sprintf "AC probe node %s unknown or ground" out);
            empty_enclosure
          end
          else
            (* each slice gets its own AC enclosure (tighter small-signal
               intervals); any sample lives in some slice, so the hull
               encloses them all *)
            match
              List.map
                (fun iops ->
                  ac_enclosures circuit layout ~iops ~freqs
                    ~out_idx:(out_node - 1) ~note)
                per_slice_iops
            with
            | [] -> empty_enclosure
            | e0 :: rest -> List.fold_left hull_enclosure e0 rest
        end
      in
      (devices, enclosure, slices, List.rev !lnotes)
    in
    (* escalate the global-Vth subdivision until every slice verifies AND
       the AC enclosure is usable: a coarse grid can pass the DC Krawczyk
       yet leave small-signal intervals too wide to bracket the 0 dB
       crossing, where a finer grid succeeds -- but a coarse usable
       answer is still better than a deeper level that fails DC *)
    let rec ladder = function
      | [] -> assert false
      | m :: rest -> (
          match attempt m with
          | Error err -> if rest = [] then Error err else ladder rest
          | Ok verified ->
              let ((_, enclosure, _, _) as r) = realise verified in
              let usable =
                Array.length freqs = 0
                || (enclosure.gain_db <> None && enclosure.pm_deg <> None)
              in
              if usable || rest = [] then Ok r
              else (
                match ladder rest with Ok deeper -> Ok deeper | Error _ -> Ok r)
          )
    in
    let levels = if need_n || need_p then [ 1; 2; 4; 8 ] else [ 1 ] in
    match ladder levels with
    | Error msg ->
        note msg;
        finish ()
    | Ok (devices, enclosure, slices, lnotes) ->
        List.iter note lnotes;
        finish ~dc:true ~devices ~enclosure ~slices ()
  with
  | Lu.Singular _ ->
      note "linear solve hit a singular pivot";
      finish ()
  | Invalid_argument m ->
      note ("analysis degraded: " ^ m);
      finish ()
  | Failure m ->
      note ("analysis degraded: " ^ m);
      finish ()
  | Not_found ->
      note "analysis degraded: missing layout entry";
      finish ()

(* ---------- diagnostics rendering ---------- *)

let ostr = function Some i -> I.to_string i | None -> "unbounded"

let diagnostics ?file ?origin ?y_span ?(emit_verdict = true) ~subject ~window
    report =
  let dev_span name =
    match origin with
    | None -> None
    | Some (o : Elab.origin) ->
        Option.map Diagnostic.span_of_ast (Hashtbl.find_opt o.Elab.devices name)
  in
  let dcodes =
    if not report.dc_verified then
      [
        Diagnostic.make ?file ?span:y_span ~code:"D003"
          ~severity:Diagnostic.Warning ~subject
          (Printf.sprintf
             "no verified DC operating-point enclosure for the variation box%s"
             (match report.notes with [] -> "" | n :: _ -> ": " ^ n));
      ]
    else
      List.map
        (fun p ->
          if p.proved then
            Diagnostic.make ?file ?span:(dev_span p.device) ~code:"D001"
              ~severity:Diagnostic.Info ~subject:p.device
              ("provably in saturation across the variation box: " ^ p.detail)
          else
            Diagnostic.make ?file ?span:(dev_span p.device) ~code:"D002"
              ~severity:Diagnostic.Warning ~subject:p.device
              ("not provably in saturation across the variation box: " ^ p.detail))
        report.devices
  in
  let ycode =
    if not emit_verdict then []
    else begin
      let enc = report.enclosure in
      let evidence =
        Printf.sprintf
          "gain %s dB, PM %s deg, unity-gain %s Hz vs window (gain >= %g dB, PM >= %g deg)"
          (ostr enc.gain_db) (ostr enc.pm_deg) (ostr enc.unity_gain_hz)
          window.min_gain_db window.min_pm_deg
      in
      let related =
        List.filter_map
          (fun p ->
            if p.proved then None
            else
              Option.map
                (fun s ->
                  {
                    Diagnostic.rel_file = None;
                    rel_span = s;
                    note = p.device ^ ": " ^ p.detail;
                  })
                (dev_span p.device))
          report.devices
      in
      let code, severity, text =
        match report.verdict with
        | Provably_fail ->
            ( "Y001",
              Diagnostic.Warning,
              "every sample in the variation box provably misses the spec window (yield 0): "
              ^ evidence )
        | Provably_pass ->
            ( "Y002",
              Diagnostic.Info,
              "spec window provably met across the truncated variation box: "
              ^ evidence )
        | Undecided ->
            ( "Y003",
              Diagnostic.Info,
              Printf.sprintf "corner verdict undecided: %s%s" evidence
                (match report.notes with
                | [] -> ""
                | ns -> " (" ^ String.concat "; " ns ^ ")") )
      in
      [ Diagnostic.make ?file ?span:y_span ~related ~code ~severity ~subject text ]
    end
  in
  dcodes @ ycode

(* ---------- file entry point ---------- *)

let default_window = { min_gain_db = 0.; min_pm_deg = 0. }

let check_deck ?k_sigma ?spec ?(window = default_window) deck =
  match (deck, Netlist_lint.refusals deck) with
  | Error n000, _ -> [ n000 ]
  (* a deck that parses but does not elaborate: the AST findings that
     explain why, as lint netlist reports them (its N000 only when they
     do not) *)
  | Ok { Deck.elaborated = Error _; _ }, _ -> Netlist_lint.check_deck deck
  (* a deck the simulator refuses has no samples to prove anything about *)
  | _, (_ :: _ as refused) -> refused
  | Ok { Deck.path; elaborated = Ok { Deck.circuit; origin; analyses }; _ }, []
    -> (
      let ac_card =
        List.find_map
          (fun (a, span) ->
            match a with
            | Elab.Ac_analysis { per_decade; f_lo; f_hi; out } ->
                Some (per_decade, f_lo, f_hi, out, span)
            | Elab.Op | Elab.Tran_analysis _ | Elab.Dc_analysis _ -> None)
          analyses
      in
      match ac_card with
      | None ->
          let report =
            analyse_circuit ?k_sigma ?spec ~window ~freqs:[||] ~out:"0" circuit
          in
          diagnostics ~file:path ~origin ~emit_verdict:false
            ~subject:(Filename.basename path) ~window report
      | Some (per_decade, f_lo, f_hi, out, span) ->
          let freqs =
            try Ac.default_freqs ~per_decade ~f_lo ~f_hi ()
            with Invalid_argument _ -> [||]
          in
          let report = analyse_circuit ?k_sigma ?spec ~window ~freqs ~out circuit in
          diagnostics ~file:path ~origin ~y_span:(Diagnostic.span_of_ast span)
            ~subject:out ~window report)
