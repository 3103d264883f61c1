type polarity = Nmos | Pmos

type model = {
  polarity : polarity;
  vth0 : float;
  kp : float;
  gamma : float;
  phi : float;
  lambda0 : float;
  n_slope : float;
  cox : float;
  cgso : float;
  cgdo : float;
  cj : float;
  cjsw : float;
  ext : float;
}

let temperature_voltage = 0.025852

type region = Cutoff | Weak | Saturation | Triode

type op = {
  ids : float;
  gm : float;
  gds : float;
  gmb : float;
  vth : float;
  vdsat : float;
  vgs : float;
  vds : float;
  vbs : float;
  region : region;
  cgs : float;
  cgd : float;
  cdb : float;
  csb : float;
}

let region_to_string = function
  | Cutoff -> "cutoff"
  | Weak -> "weak"
  | Saturation -> "saturation"
  | Triode -> "triode"

(* softplus and its derivative, overflow-safe.  Inlined so that inside
   [linearise] their floats stay unboxed: an out-of-line call would box
   its argument and its result. *)
let[@inline] softplus x =
  if x > 40. then x else if x < -40. then exp x else log (1. +. exp x)

let[@inline] sigmoid x =
  if x > 40. then 1. else if x < -40. then exp x else 1. /. (1. +. exp (-.x))

(* EKV interpolation function F(x) = ln^2(1 + e^(x/2)) and its derivative. *)
let ekv_f x =
  let s = softplus (x /. 2.) in
  s *. s

let ekv_f' x = softplus (x /. 2.) *. sigmoid (x /. 2.)

let with_deltas m ~dvth ~dkp_rel ~dlambda_rel =
  {
    m with
    vth0 = m.vth0 +. dvth;
    kp = m.kp *. (1. +. dkp_rel);
    lambda0 = m.lambda0 *. (1. +. dlambda_rel);
  }

(* NaN and the infinities fail too *)
let valid_geometry w l = Float.is_finite w && w > 0. && Float.is_finite l && l > 0.

(* [linearise] reads vgs, vds, vbs and writes ids, gm, gds, gmb, vth,
   vdsat *)
let buffer_length = 9

let buffer () = Array.make buffer_length 0.

(* The EKV core.  Every intermediate is a local float, so it allocates
   nothing.  For vds >= 0 it evaluates the forward device; for vds < 0 it
   evaluates the forward device on the exchanged terminals and maps the
   current and its derivatives back.  Each EKV term computes
   softplus (x/2) once and uses it for both F and F'. *)
let linearise m ~w ~l buf =
  if not (valid_geometry w l) then
    invalid_arg "Mosfet: geometry must be finite and positive";
  if Array.length buf < buffer_length then invalid_arg "Mosfet.linearise: short buffer";
  let vgs = buf.(0) and vds = buf.(1) and vbs = buf.(2) in
  let reversed = vds < 0. in
  (* in reverse operation the physical source is the drain terminal *)
  let vgs = if reversed then vgs -. vds else vgs in
  let vbs = if reversed then vbs -. vds else vbs in
  let vds = if reversed then -.vds else vds in
  let vt = temperature_voltage in
  let n = m.n_slope in
  (* body effect: vbs <= 0 increases vth.  Clamp the sqrt argument so Newton
     excursions into forward body bias do not produce NaN. *)
  let sarg = Float.max 0.05 (m.phi -. vbs) in
  let vth = m.vth0 +. (m.gamma *. (sqrt sarg -. sqrt m.phi)) in
  let dvth_dvbs = -.(m.gamma /. (2. *. sqrt sarg)) in
  let lambda = m.lambda0 /. (l *. 1e6) in
  let beta = m.kp *. w /. l in
  let i0 = 2. *. n *. beta *. vt *. vt in
  let a = (vgs -. vth) /. (n *. vt) in
  let b = (vgs -. vth -. (n *. vds)) /. (n *. vt) in
  let sa = softplus (a /. 2.) and sb = softplus (b /. 2.) in
  let fa = sa *. sa and fb = sb *. sb in
  let fa' = sa *. sigmoid (a /. 2.) and fb' = sb *. sigmoid (b /. 2.) in
  let clm = 1. +. (lambda *. vds) in
  let base = i0 *. (fa -. fb) in
  let ids = base *. clm in
  (* d a / d vgs = 1/(n vt); d b / d vgs = 1/(n vt); d b / d vds = -1/vt *)
  let gm = i0 *. (fa' -. fb') /. (n *. vt) *. clm in
  let gds = (i0 *. fb' /. vt *. clm) +. (base *. lambda) in
  (* vth depends on vbs: d ids/d vbs = d ids/d vth * dvth/dvbs, and
     d ids/d vth = -gm *)
  let gmb = -.gm *. dvth_dvbs in
  if reversed then begin
    (* I(vgs,vds) = -I'(vgs-vds, -vds); chain rule for the derivatives:
       dI/dvgs = -gm', dI/dvds = gm' + gds' + gmb', dI/dvbs = -gmb' *)
    buf.(3) <- -.ids;
    buf.(4) <- -.gm;
    buf.(5) <- gm +. gds +. gmb;
    buf.(6) <- -.gmb
  end
  else begin
    buf.(3) <- ids;
    buf.(4) <- gm;
    buf.(5) <- gds;
    buf.(6) <- gmb
  end;
  buf.(7) <- vth;
  buf.(8) <- Float.max (2. *. vt) ((vgs -. vth) /. n)

let eval m ~w ~l ~vgs ~vds ~vbs =
  let buf = buffer () in
  buf.(0) <- vgs;
  buf.(1) <- vds;
  buf.(2) <- vbs;
  linearise m ~w ~l buf;
  let vth = buf.(7) and vdsat = buf.(8) in
  let reversed = vds < 0. in
  (* the forward device's biases, as [linearise] saw them *)
  let vgs' = if reversed then vgs -. vds else vgs in
  let vds' = if reversed then -.vds else vds in
  let vt = temperature_voltage in
  let n = m.n_slope in
  let region =
    if vgs' -. vth < -3. *. n *. vt then Cutoff
    else if vgs' -. vth < 3. *. n *. vt then Weak
    else if vds' > vdsat then Saturation
    else Triode
  in
  (* Meyer-style capacitances, blended smoothly across the region
     boundaries: a discrete switch makes poles (and hence phase margin) jump
     discontinuously under Monte Carlo perturbations of devices biased near
     a boundary.  [inversion] fades the intrinsic channel capacitance in as
     the channel forms; [saturated] slides the gate capacitance between the
     triode split (1/2, 1/2) and the saturation split (2/3, 0). *)
  let cox_total = m.cox *. w *. l in
  let inversion = sigmoid ((vgs' -. vth) /. (2. *. m.n_slope *. vt)) in
  let saturated = sigmoid ((vds' -. vdsat) /. (2. *. vt)) in
  let cgs_i =
    cox_total *. inversion
    *. ((2. /. 3. *. saturated) +. (0.5 *. (1. -. saturated)))
  in
  let cgd_i = cox_total *. inversion *. 0.5 *. (1. -. saturated) in
  let cgs_f = cgs_i +. (m.cgso *. w) in
  let cgd_f = cgd_i +. (m.cgdo *. w) in
  let cjunction = (m.cj *. w *. m.ext) +. (m.cjsw *. ((2. *. m.ext) +. w)) in
  {
    ids = buf.(3);
    gm = buf.(4);
    gds = buf.(5);
    gmb = buf.(6);
    vth;
    vdsat;
    vgs;
    vds;
    vbs;
    region;
    cgs = (if reversed then cgd_f else cgs_f);
    cgd = (if reversed then cgs_f else cgd_f);
    cdb = cjunction;
    csb = cjunction;
  }
