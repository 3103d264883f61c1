(* The device equations of the MOS model, over a scalar module [S]: the
   process perturbation of a model, the EKV device with its source-drain
   reversal, and the Meyer capacitances.  The build splices this text
   after a scalar prelude twice: over floats into Mosfet (the simulator)
   and over outward-rounded intervals into Device_interval (the corner
   proof).  Each float operation of the simulator is therefore an
   operation of the proof on intervals that contain its operands, which
   is what makes the proof's enclosures sound (DESIGN.md §4a, "One text,
   two instances").  Expressions of model constants alone are float
   expressions lifted with [S.c], so both instances compute them
   identically; every expression keeps the association of the simulator's
   arithmetic.  [S.t] values never cross a call boxed in the float
   instance: the entry points are inlined into their callers and pass
   results through an [S.t array].

   In scope before this text: [S], the record type [model] of Mosfet and
   [temperature_voltage]. *)

(* ---------- the process perturbation ---------- *)

(* a model's threshold shifted by [dvth] volts, and its kp and lambda0
   scaled by [1 + dkp_rel] and [1 + dlambda_rel] *)
let[@inline] perturbed_vth0 (m : model) dvth = S.(c m.vth0 + dvth)

let[@inline] perturbed_kp (m : model) dkp_rel = S.(c m.kp * (one + dkp_rel))

let[@inline] perturbed_lambda0 (m : model) dlambda_rel =
  S.(c m.lambda0 * (one + dlambda_rel))

(* ---------- the EKV device ---------- *)

(* [ekv_into m ~vth0 ~kp ~lambda0 ~w ~l buf] evaluates the device of
   model [m] with the (possibly perturbed) parameters [vth0], [kp],
   [lambda0] at the NMOS-convention, source-referenced bias vgs, vds, vbs
   read from buf.(0), buf.(1), buf.(2).  It writes ids, gm, gds, gmb, vth
   and vdsat to buf.(3) ... buf.(8), overwrites buf.(0) and buf.(1) with
   the vgs and vds of the forward device it evaluated, and returns whether
   it reversed source and drain (vds < 0).  A buffer with a tenth slot
   also gets d ids / d lambda0 in buf.(9). *)
let[@inline] ekv_into (m : model) ~vth0 ~kp ~lambda0 ~w ~l (buf : S.t array) =
  let vgs = buf.(0) and vds = buf.(1) and vbs = buf.(2) in
  (* in reverse operation the physical source is the drain terminal: the
     forward device sees the exchanged terminals *)
  let reversed = S.negative vds in
  let vgs = if reversed then S.(vgs - vds) else vgs in
  let vbs = if reversed then S.(vbs - vds) else vbs in
  let vds = if reversed then S.neg vds else vds in
  let vt = temperature_voltage in
  let n = m.n_slope in
  (* body effect: vbs <= 0 increases vth.  Clamp the sqrt argument so Newton
     excursions into forward body bias do not produce NaN. *)
  let sarg = S.max_c 0.05 S.(c m.phi - vbs) in
  let vth = S.(vth0 + (c m.gamma * (sqrt sarg - c (Float.sqrt m.phi)))) in
  let dvth_dvbs = S.(neg (c m.gamma / (c 2. * sqrt sarg))) in
  let lambda = S.(lambda0 / c (l *. 1e6)) in
  let beta = S.(kp * c w / c l) in
  let i0 = S.(c (2. *. n) * beta * c vt * c vt) in
  let a = S.((vgs - vth) / c (n *. vt)) in
  let b = S.((vgs - vth - (c n * vds)) / c (n *. vt)) in
  (* the EKV interpolation F(x) = softplus^2 (x/2) and its derivative
     F'(x) = softplus (x/2) sigmoid (x/2), softplus evaluated once a term *)
  let sa = S.softplus S.(a / c 2.) and sb = S.softplus S.(b / c 2.) in
  let fa = S.(sa * sa) and fb = S.(sb * sb) in
  let fa' = S.(sa * sigmoid (a / c 2.)) and fb' = S.(sb * sigmoid (b / c 2.)) in
  let clm = S.(one + (lambda * vds)) in
  let base = S.(i0 * (fa - fb)) in
  let ids = S.(base * clm) in
  (* d a / d vgs = 1/(n vt); d b / d vgs = 1/(n vt); d b / d vds = -1/vt *)
  let gm = S.(i0 * (fa' - fb') / c (n *. vt) * clm) in
  let gds = S.((i0 * fb' / c vt * clm) + (base * lambda)) in
  (* vth depends on vbs: d ids/d vbs = d ids/d vth * dvth/dvbs, and
     d ids/d vth = -gm *)
  let gmb = S.(neg gm * dvth_dvbs) in
  if reversed then begin
    (* I(vgs,vds) = -I'(vgs-vds, -vds); chain rule for the derivatives:
       dI/dvgs = -gm', dI/dvds = gm' + gds' + gmb', dI/dvbs = -gmb' *)
    buf.(3) <- S.neg ids;
    buf.(4) <- S.neg gm;
    buf.(5) <- S.(gm + gds + gmb);
    buf.(6) <- S.neg gmb
  end
  else begin
    buf.(3) <- ids;
    buf.(4) <- gm;
    buf.(5) <- gds;
    buf.(6) <- gmb
  end;
  buf.(7) <- vth;
  buf.(8) <- S.max_c (2. *. vt) S.((vgs - vth) / c n);
  buf.(0) <- vgs;
  buf.(1) <- vds;
  if Array.length buf > 9 then begin
    (* ids = base (1 + lambda0 vds / (l 1e6)), negated when reversed *)
    let dids = S.(base * vds / c (l *. 1e6)) in
    buf.(9) <- (if reversed then S.neg dids else dids)
  end;
  reversed

(* ---------- the Meyer capacitances ---------- *)

(* [meyer_into m ~w ~l ~reversed buf], after [ekv_into] filled [buf] and
   returned [reversed], writes cgs, cgd and the junction capacitance
   (cdb = csb) to buf.(0), buf.(1), buf.(2).  The capacitances blend
   smoothly across the region boundaries: a discrete switch makes poles
   (and hence phase margin) jump discontinuously under Monte Carlo
   perturbations of devices biased near a boundary.  [inversion] fades
   the intrinsic channel capacitance in as the channel forms; [saturated]
   slides the gate capacitance between the triode split (1/2, 1/2) and
   the saturation split (2/3, 0).  A reversed device exchanges cgs and
   cgd. *)
let[@inline] meyer_into (m : model) ~w ~l ~reversed (buf : S.t array) =
  let vgs = buf.(0) and vds = buf.(1) and vth = buf.(7) and vdsat = buf.(8) in
  let vt = temperature_voltage in
  let cox_total = m.cox *. w *. l in
  let inversion = S.sigmoid S.((vgs - vth) / c (2. *. m.n_slope *. vt)) in
  let saturated = S.sigmoid S.((vds - vdsat) / c (2. *. vt)) in
  let cgs_i =
    S.(
      c cox_total * inversion
      * ((c (2. /. 3.) * saturated) + (c 0.5 * (one - saturated))))
  in
  let cgd_i = S.(c cox_total * inversion * c 0.5 * (one - saturated)) in
  let cgs = S.(cgs_i + c (m.cgso *. w)) in
  let cgd = S.(cgd_i + c (m.cgdo *. w)) in
  buf.(0) <- (if reversed then cgd else cgs);
  buf.(1) <- (if reversed then cgs else cgd);
  buf.(2) <- S.c ((m.cj *. w *. m.ext) +. (m.cjsw *. ((2. *. m.ext) +. w)))
