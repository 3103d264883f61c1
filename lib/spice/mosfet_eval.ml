(* The last piece of mosfet.ml (see mosfet_types.ml): the model's entry
   points, built on the float instance of the device equations. *)

let softplus = S.softplus

let sigmoid = S.sigmoid

let with_deltas_in (d : float array) m =
  {
    m with
    vth0 = perturbed_vth0 m d.(0);
    kp = perturbed_kp m d.(1);
    lambda0 = perturbed_lambda0 m d.(2);
  }

let with_deltas m ~dvth ~dkp_rel ~dlambda_rel =
  with_deltas_in [| dvth; dkp_rel; dlambda_rel |] m

(* NaN and the infinities fail too *)
let[@inline] valid_geometry w l =
  Float.is_finite w && w > 0. && Float.is_finite l && l > 0.

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

(* the geometry read where [evaluate] is inlined, so it is never boxed *)
let linearise_at m (design : float array) ~w_at ~l_at buf =
  ignore (evaluate m ~w:design.(w_at) ~l:design.(l_at) buf : bool)

(* [evaluate], the region and the Meyer capacitances at the bias in
   buf.(0), buf.(1), buf.(2): ids .. vdsat land in buf.(3) .. buf.(8) as
   [evaluate] leaves them, and cgs, cgd and the junction capacitance
   (cdb = csb) in buf.(0), buf.(1), buf.(2) *)
let[@inline] small_signal_into m ~w ~l buf =
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
  region

let small_signal m ~w ~l buf = ignore (small_signal_into m ~w ~l buf : region)

let small_signal_at m (design : float array) ~w_at ~l_at buf =
  ignore (small_signal_into m ~w:design.(w_at) ~l:design.(l_at) buf : region)

let eval_with buf m ~w ~l ~vgs ~vds ~vbs =
  buf.(0) <- vgs;
  buf.(1) <- vds;
  buf.(2) <- vbs;
  let region = small_signal_into m ~w ~l buf in
  let cjunction = buf.(2) in
  {
    ids = buf.(3);
    gm = buf.(4);
    gds = buf.(5);
    gmb = buf.(6);
    vth = buf.(7);
    vdsat = buf.(8);
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
