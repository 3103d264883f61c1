(* The last piece of mosfet.ml (see mosfet_types.ml): the model's entry
   points, built on the float instance of the device equations. *)

let softplus = S.softplus

let sigmoid = S.sigmoid

let with_deltas m ~dvth ~dkp_rel ~dlambda_rel =
  {
    m with
    vth0 = perturbed_vth0 m dvth;
    kp = perturbed_kp m dkp_rel;
    lambda0 = perturbed_lambda0 m dlambda_rel;
  }

(* NaN and the infinities fail too *)
let valid_geometry w l = Float.is_finite w && w > 0. && Float.is_finite l && l > 0.

(* [linearise] reads vgs, vds, vbs and writes ids, gm, gds, gmb, vth,
   vdsat *)
let buffer_length = 9

let buffer () = Array.make buffer_length 0.

(* The checked EKV core, inlined into [linearise] and [eval]: every
   intermediate is a local float, so it allocates nothing.  Returns
   whether the device was evaluated source-drain reversed. *)
let[@inline] evaluate m ~w ~l buf =
  if not (valid_geometry w l) then
    invalid_arg "Mosfet: geometry must be finite and positive";
  if Array.length buf < buffer_length then invalid_arg "Mosfet.linearise: short buffer";
  ekv_into m ~vth0:m.vth0 ~kp:m.kp ~lambda0:m.lambda0 ~w ~l buf

let linearise m ~w ~l buf = ignore (evaluate m ~w ~l buf : bool)

let eval_with buf m ~w ~l ~vgs ~vds ~vbs =
  buf.(0) <- vgs;
  buf.(1) <- vds;
  buf.(2) <- vbs;
  let reversed = evaluate m ~w ~l buf in
  (* the forward device's biases, as the equations saw them *)
  let vgs' = buf.(0) and vds' = buf.(1) in
  let vth = buf.(7) and vdsat = buf.(8) in
  let vt = temperature_voltage in
  let n = m.n_slope in
  let region =
    if vgs' -. vth < -3. *. n *. vt then Cutoff
    else if vgs' -. vth < 3. *. n *. vt then Weak
    else if vds' > vdsat then Saturation
    else Triode
  in
  meyer_into m ~w ~l ~reversed buf;
  let cjunction = buf.(2) in
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
    cgs = buf.(0);
    cgd = buf.(1);
    cdb = cjunction;
    csb = cjunction;
  }

let eval m ~w ~l ~vgs ~vds ~vbs = eval_with (buffer ()) m ~w ~l ~vgs ~vds ~vbs
