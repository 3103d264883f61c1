module Mosfet = Yield_spice.Mosfet
module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Rng = Yield_stats.Rng

type global_spec = {
  sigma_vth_n : float;
  sigma_vth_p : float;
  sigma_kp_rel_n : float;
  sigma_kp_rel_p : float;
  sigma_lambda_rel : float;
}

type mismatch_spec = {
  avt_n : float;
  avt_p : float;
  abeta_n : float;
  abeta_p : float;
}

type spec = { global : global_spec; mismatch : mismatch_spec }

(* The paper's foundry statistical deck is proprietary; these sigmas keep
   the standard structure (global lot variation + Pelgrom mismatch) with
   magnitudes calibrated so that the OTA performance spreads land in the
   order the paper reports in Table 2 (dGain ~ 0.5 %, dPM ~ 1.5-2 % at the
   3-sigma envelope).  See DESIGN.md §2. *)
let default_spec =
  {
    global =
      {
        sigma_vth_n = 0.005;
        sigma_vth_p = 0.007;
        sigma_kp_rel_n = 0.01;
        sigma_kp_rel_p = 0.01;
        sigma_lambda_rel = 0.015;
      };
    mismatch =
      {
        avt_n = 3.5e-9;
        avt_p = 5.0e-9;
        abeta_n = 3.5e-9;
        abeta_p = 3.5e-9;
      };
  }

let zero_spec =
  {
    global =
      {
        sigma_vth_n = 0.;
        sigma_vth_p = 0.;
        sigma_kp_rel_n = 0.;
        sigma_kp_rel_p = 0.;
        sigma_lambda_rel = 0.;
      };
    mismatch = { avt_n = 0.; avt_p = 0.; abeta_n = 0.; abeta_p = 0. };
  }

let scale_spec k spec =
  {
    global =
      {
        sigma_vth_n = k *. spec.global.sigma_vth_n;
        sigma_vth_p = k *. spec.global.sigma_vth_p;
        sigma_kp_rel_n = k *. spec.global.sigma_kp_rel_n;
        sigma_kp_rel_p = k *. spec.global.sigma_kp_rel_p;
        sigma_lambda_rel = k *. spec.global.sigma_lambda_rel;
      };
    mismatch =
      {
        avt_n = k *. spec.mismatch.avt_n;
        avt_p = k *. spec.mismatch.avt_p;
        abeta_n = k *. spec.mismatch.abeta_n;
        abeta_p = k *. spec.mismatch.abeta_p;
      };
  }

type global_draw = {
  dvth_n : float;
  dvth_p : float;
  dkp_rel_n : float;
  dkp_rel_p : float;
  dlambda_rel : float;
}

let global_dims = 5

let nominal_global =
  { dvth_n = 0.; dvth_p = 0.; dkp_rel_n = 0.; dkp_rel_p = 0.; dlambda_rel = 0. }

(* [0. +. (sigma *. z)]: {!Rng.normal}'s arithmetic at mean 0 *)
let[@inline] scaled sigma z = 0. +. (sigma *. z)

(* The deviates go through [z] (see {!Rng.gaussian_into}), so no float
   crosses a call boxed.  They are drawn lambda first and vth_n last: the
   order the pinned tables were sampled in. *)
let draw_global spec rng =
  let g = spec.global in
  let z = Array.make global_dims 0. in
  for i = global_dims - 1 downto 0 do
    Rng.gaussian_into rng z i
  done;
  {
    dvth_n = scaled g.sigma_vth_n z.(0);
    dvth_p = scaled g.sigma_vth_p z.(1);
    dkp_rel_n = scaled g.sigma_kp_rel_n z.(2);
    dkp_rel_p = scaled g.sigma_kp_rel_p z.(3);
    dlambda_rel = scaled g.sigma_lambda_rel z.(4);
  }

let global_draw_of_normals spec z =
  if Array.length z <> global_dims then
    invalid_arg "Variation.global_draw_of_normals: need 5 deviates";
  let g = spec.global in
  {
    dvth_n = z.(0) *. g.sigma_vth_n;
    dvth_p = z.(1) *. g.sigma_vth_p;
    dkp_rel_n = z.(2) *. g.sigma_kp_rel_n;
    dkp_rel_p = z.(3) *. g.sigma_kp_rel_p;
    dlambda_rel = z.(4) *. g.sigma_lambda_rel;
  }

let[@inline] mismatch_sigma_vth spec polarity ~w ~l =
  let avt =
    match polarity with
    | Mosfet.Nmos -> spec.mismatch.avt_n
    | Mosfet.Pmos -> spec.mismatch.avt_p
  in
  avt /. sqrt (w *. l)

let[@inline] mismatch_sigma_beta spec polarity ~w ~l =
  let ab =
    match polarity with
    | Mosfet.Nmos -> spec.mismatch.abeta_n
    | Mosfet.Pmos -> spec.mismatch.abeta_p
  in
  ab /. sqrt (w *. l)

(* One device's perturbed model, its deltas passed through [d]
   ({!Mosfet.with_deltas_in}'s buffer, [d.(2)] already the draw's lambda
   delta), so that it allocates only the model: the global draw of the
   device's polarity plus a threshold, then a beta mismatch deviate. *)
let[@inline] perturb_into d spec draw rng ~w ~l (model : Mosfet.model) =
  let p = model.Mosfet.polarity in
  let sigma_vth = mismatch_sigma_vth spec p ~w ~l in
  let sigma_beta = mismatch_sigma_beta spec p ~w ~l in
  Rng.gaussian_into rng d 0;
  let dvth_global =
    match p with Mosfet.Nmos -> draw.dvth_n | Mosfet.Pmos -> draw.dvth_p
  in
  d.(0) <- dvth_global +. scaled sigma_vth d.(0);
  Rng.gaussian_into rng d 1;
  let dkp_global =
    match p with Mosfet.Nmos -> draw.dkp_rel_n | Mosfet.Pmos -> draw.dkp_rel_p
  in
  d.(1) <- dkp_global +. scaled sigma_beta d.(1);
  Mosfet.with_deltas_in d model

let deltas draw = [| 0.; 0.; draw.dlambda_rel |]

let perturb_model spec draw rng ~w ~l model =
  perturb_into (deltas draw) spec draw rng ~w ~l model

let perturb_circuit spec rng circuit =
  let draw = draw_global spec rng in
  Circuit.map_devices circuit (fun dev ->
      match dev with
      | Device.Mosfet m ->
          let model = perturb_model spec draw rng ~w:m.w ~l:m.l m.model in
          Device.Mosfet { m with model }
      | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
      | Device.Isource _ | Device.Vccs _ ->
          dev)

(* ---------- batch-first per-sample overrides ----------

   [Circuit.map_devices] applies its function through [List.rev_map] over
   the reversed device list, i.e. in REVERSE device-array order (index
   n-1 down to 0).  The overrides builders below must consume mismatch
   deviates in exactly that order so that the per-sample patching path is
   bit-identical to the historical full-rebuild path. *)

let overrides_with_draw spec draw rng circuit =
  let devices = Circuit.devices circuit in
  let n = Array.length devices in
  let out : Yield_spice.Mna.models = Array.make n None in
  let d = deltas draw in
  for di = n - 1 downto 0 do
    match devices.(di) with
    | Device.Mosfet m ->
        out.(di) <- Some (perturb_into d spec draw rng ~w:m.w ~l:m.l m.model)
    | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
    | Device.Isource _ | Device.Vccs _ ->
        ()
  done;
  out

let overrides spec rng circuit =
  overrides_with_draw spec (draw_global spec rng) rng circuit

let overrides_gen spec z circuit =
  let g = spec.global in
  (* field-by-field lets pin the deviate order the interface documents *)
  let zvn = z () in
  let zvp = z () in
  let zkn = z () in
  let zkp = z () in
  let zl = z () in
  let draw =
    {
      dvth_n = zvn *. g.sigma_vth_n;
      dvth_p = zvp *. g.sigma_vth_p;
      dkp_rel_n = zkn *. g.sigma_kp_rel_n;
      dkp_rel_p = zkp *. g.sigma_kp_rel_p;
      dlambda_rel = zl *. g.sigma_lambda_rel;
    }
  in
  let devices = Circuit.devices circuit in
  let n = Array.length devices in
  let out : Yield_spice.Mna.models = Array.make n None in
  for di = n - 1 downto 0 do
    match devices.(di) with
    | Device.Mosfet m ->
        let dvth_global, dkp_global =
          match m.model.Mosfet.polarity with
          | Mosfet.Nmos -> (draw.dvth_n, draw.dkp_rel_n)
          | Mosfet.Pmos -> (draw.dvth_p, draw.dkp_rel_p)
        in
        let sigma_vth =
          mismatch_sigma_vth spec m.model.Mosfet.polarity ~w:m.w ~l:m.l
        in
        let sigma_beta =
          mismatch_sigma_beta spec m.model.Mosfet.polarity ~w:m.w ~l:m.l
        in
        let dvth = dvth_global +. (z () *. sigma_vth) in
        let dkp_rel = dkp_global +. (z () *. sigma_beta) in
        out.(di) <-
          Some
            (Mosfet.with_deltas m.model ~dvth ~dkp_rel
               ~dlambda_rel:draw.dlambda_rel)
    | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
    | Device.Isource _ | Device.Vccs _ ->
        ()
  done;
  out

let apply_overrides circuit (models : Yield_spice.Mna.models) =
  let n = Array.length (Circuit.devices circuit) in
  (* map_devices visits devices in reverse array order; walk the index
     alongside it *)
  let di = ref n in
  Circuit.map_devices circuit (fun dev ->
      decr di;
      match dev with
      | Device.Mosfet m -> (
          match models.(!di) with
          | Some model -> Device.Mosfet { m with model }
          | None -> dev)
      | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
      | Device.Isource _ | Device.Vccs _ ->
          dev)
