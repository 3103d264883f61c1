(* The last piece of mosfet.ml (see mosfet_types.ml): the model's entry
   points, built on the float instance of the device equations. *)

let softplus = S.softplus

let sigmoid = S.sigmoid

(* a model's process parameters, vth0, kp and lambda0, are kept at
   [p.(at)], [p.(at + 1)] and [p.(at + 2)] of a float buffer *)
let apply_deltas m (p : float array) ~at =
  p.(at) <- perturbed_vth0 m p.(at);
  p.(at + 1) <- perturbed_kp m p.(at + 1);
  p.(at + 2) <- perturbed_lambda0 m p.(at + 2)

let with_params m (p : float array) ~at =
  { m with vth0 = p.(at); kp = p.(at + 1); lambda0 = p.(at + 2) }

let with_deltas m ~dvth ~dkp_rel ~dlambda_rel =
  let p = [| dvth; dkp_rel; dlambda_rel |] in
  apply_deltas m p ~at:0;
  with_params m p ~at:0

(* NaN and the infinities fail too *)
let[@inline] valid_geometry w l =
  Float.is_finite w && w > 0. && Float.is_finite l && l > 0.

(* [linearise] reads vgs, vds, vbs and writes ids, gm, gds, gmb, vth,
   vdsat *)
let buffer_length = 9

let buffer () = Array.make buffer_length 0.

let[@inline] check w l buf =
  if not (valid_geometry w l) then
    invalid_arg "Mosfet: geometry must be finite and positive";
  if Array.length buf < buffer_length then invalid_arg "Mosfet.linearise: short buffer"

(* The checked EKV core, inlined into [linearise] and [eval]: every
   intermediate is a local float, so it allocates nothing.  Returns
   whether the device was evaluated source-drain reversed. *)
let[@inline] evaluate m ~w ~l buf =
  check w l buf;
  ekv_into m ~vth0:m.vth0 ~kp:m.kp ~lambda0:m.lambda0 ~w ~l buf

(* the same with the process parameters read from [p] where the body is
   inlined, so that none of them is boxed *)
let[@inline] evaluate_varied m (p : float array) ~at ~w ~l buf =
  check w l buf;
  ekv_into m ~vth0:p.(at) ~kp:p.(at + 1) ~lambda0:p.(at + 2) ~w ~l buf

let linearise m ~w ~l buf = ignore (evaluate m ~w ~l buf : bool)

let linearise_varied m p ~at ~w ~l buf =
  ignore (evaluate_varied m p ~at ~w ~l buf : bool)

(* the geometry read where [evaluate] is inlined, so it is never boxed *)
let linearise_at m (design : float array) ~w_at ~l_at buf =
  ignore (evaluate m ~w:design.(w_at) ~l:design.(l_at) buf : bool)

(* after [evaluate] or [evaluate_varied] answered [reversed]: the region
   and the Meyer capacitances.  ids .. vdsat stay in buf.(3) .. buf.(8)
   as the evaluation left them, and cgs, cgd and the junction
   capacitance (cdb = csb) land in buf.(0), buf.(1), buf.(2) *)
let[@inline] small_signal_of m ~w ~l ~reversed buf =
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

let[@inline] small_signal_into m ~w ~l buf =
  let reversed = evaluate m ~w ~l buf in
  small_signal_of m ~w ~l ~reversed buf

let small_signal m ~w ~l buf = ignore (small_signal_into m ~w ~l buf : region)

let small_signal_varied m p ~at ~w ~l buf =
  let reversed = evaluate_varied m p ~at ~w ~l buf in
  ignore (small_signal_of m ~w ~l ~reversed buf : region)

let small_signal_at m (design : float array) ~w_at ~l_at buf =
  ignore (small_signal_into m ~w:design.(w_at) ~l:design.(l_at) buf : region)

(* the operating point [small_signal_of] left in [buf] at the bias
   vgs, vds, vbs *)
let[@inline] op_of buf ~vgs ~vds ~vbs region =
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

let[@inline] set_bias buf ~vgs ~vds ~vbs =
  buf.(0) <- vgs;
  buf.(1) <- vds;
  buf.(2) <- vbs

let eval_with buf m ~w ~l ~vgs ~vds ~vbs =
  set_bias buf ~vgs ~vds ~vbs;
  let region = small_signal_into m ~w ~l buf in
  op_of buf ~vgs ~vds ~vbs region

let eval_varied_with buf m p ~at ~w ~l ~vgs ~vds ~vbs =
  set_bias buf ~vgs ~vds ~vbs;
  let reversed = evaluate_varied m p ~at ~w ~l buf in
  op_of buf ~vgs ~vds ~vbs (small_signal_of m ~w ~l ~reversed buf)

let eval m ~w ~l ~vgs ~vds ~vbs = eval_with (buffer ()) m ~w ~l ~vgs ~vds ~vbs
