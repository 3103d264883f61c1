(* The two instances of the shared device and stamp bodies: on point
   inputs, the interval instance (Device_interval) must enclose every
   float the float instance (Mosfet, Mna) computes, device by device and
   slot by slot; and the corner verdicts that rest on it are pinned. *)

module I = Yield_analyse.Interval
module D = Yield_analyse.Device_interval
module CL = Yield_analyse.Corner_lint
module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Mosfet = Yield_spice.Mosfet
module Mna = Yield_spice.Mna
module Dcop = Yield_spice.Dcop
module Tech = Yield_process.Tech
module Tb = Yield_circuits.Testbench

let pt = I.point

let enclose what (i : I.t) x =
  if not (I.contains i x) then
    QCheck.Test.fail_reportf "%s: %s does not contain %h" what (I.to_string i) x

(* ---------- device equations ---------- *)

(* which edges of the model a run reached *)
type coverage = {
  mutable reversed : int;
  mutable above_40 : int;  (* x/2 > 40: softplus x/2 = x/2 *)
  mutable below_40 : int;  (* x/2 < -40: softplus x/2 = e^(x/2) *)
  mutable clamped : int;  (* vbs > phi - 0.05: the sqrt argument clamps *)
}

let device_case =
  QCheck.Gen.(
    let* pmos = bool in
    let* v = array_repeat 4 (float_range (-4.) 4.) in
    let* w = float_range 0.5e-6 200e-6 in
    let* l = float_range 0.35e-6 10e-6 in
    let* dvth = float_range (-0.1) 0.1 in
    let* dkp_rel = float_range (-0.2) 0.2 in
    let* dlambda_rel = float_range (-0.3) 0.3 in
    return (pmos, v, w, l, dvth, dkp_rel, dlambda_rel))

let device_property cov =
  QCheck.Test.make ~count:4000
    ~name:"Device_interval encloses Mosfet.linearise and Mosfet.eval"
    (QCheck.make device_case)
    (fun (pmos, v, w, l, dvth, dkp_rel, dlambda_rel) ->
      let base = if pmos then Tech.c35.Tech.pmos else Tech.c35.Tech.nmos in
      let m = Mosfet.with_deltas base ~dvth ~dkp_rel ~dlambda_rel in
      let vth0 = D.perturbed_vth0 base (pt dvth) in
      let kp = D.perturbed_kp base (pt dkp_rel) in
      let lambda0 = D.perturbed_lambda0 base (pt dlambda_rel) in
      enclose "vth0" vth0 m.Mosfet.vth0;
      enclose "kp" kp m.Mosfet.kp;
      enclose "lambda0" lambda0 m.Mosfet.lambda0;
      (* terminal voltages d, g, s, b on nodes 1-4; the polarity flip *)
      let op = Mna.mos_operating_point m ~w ~l ~d:1 ~g:2 ~s:3 ~b:4 v in
      let p = m.Mosfet.polarity in
      let ibuf = Array.make 10 I.zero in
      ibuf.(0) <- D.polar p (pt v.(1)) (pt v.(2));
      ibuf.(1) <- D.polar p (pt v.(0)) (pt v.(2));
      ibuf.(2) <- D.polar p (pt v.(3)) (pt v.(2));
      enclose "vgs" ibuf.(0) op.Mosfet.vgs;
      enclose "vds" ibuf.(1) op.Mosfet.vds;
      enclose "vbs" ibuf.(2) op.Mosfet.vbs;
      let ids_eff = if pmos then -.op.Mosfet.ids else op.Mosfet.ids in
      enclose "drain current" (D.drain_current p (pt op.Mosfet.ids)) ids_eff;
      let buf = Mosfet.buffer () in
      buf.(0) <- op.Mosfet.vgs;
      buf.(1) <- op.Mosfet.vds;
      buf.(2) <- op.Mosfet.vbs;
      Mosfet.linearise m ~w ~l buf;
      let reversed = D.ekv_into base ~vth0 ~kp ~lambda0 ~w ~l ibuf in
      if reversed <> (op.Mosfet.vds < 0.) then
        QCheck.Test.fail_reportf "reversal decided %b at vds %h" reversed
          op.Mosfet.vds;
      List.iteri
        (fun k name -> enclose name ibuf.(k) buf.(k))
        [ "forward vgs"; "forward vds" ];
      List.iteri
        (fun k (name, x) ->
          enclose name ibuf.(k + 3) buf.(k + 3);
          enclose ("eval " ^ name) ibuf.(k + 3) x)
        [
          ("ids", op.Mosfet.ids);
          ("gm", op.Mosfet.gm);
          ("gds", op.Mosfet.gds);
          ("gmb", op.Mosfet.gmb);
          ("vth", op.Mosfet.vth);
          ("vdsat", op.Mosfet.vdsat);
        ];
      (* the edges this case reached, on the forward device's bias *)
      let vt = Mosfet.temperature_voltage and n = m.Mosfet.n_slope in
      let vbs_f = if reversed then op.Mosfet.vbs -. op.Mosfet.vds else op.Mosfet.vbs in
      let half_a = (buf.(0) -. buf.(7)) /. (n *. vt) /. 2. in
      if reversed then cov.reversed <- cov.reversed + 1;
      if half_a > 40. then cov.above_40 <- cov.above_40 + 1;
      if half_a < -40. then cov.below_40 <- cov.below_40 + 1;
      if vbs_f > m.Mosfet.phi -. 0.05 then cov.clamped <- cov.clamped + 1;
      D.meyer_into base ~w ~l ~reversed ibuf;
      enclose "cgs" ibuf.(0) op.Mosfet.cgs;
      enclose "cgd" ibuf.(1) op.Mosfet.cgd;
      enclose "cdb" ibuf.(2) op.Mosfet.cdb;
      enclose "csb" ibuf.(2) op.Mosfet.csb;
      (* a vgs range 0.5 V wide encloses the floats at five of its points,
         across the softplus's switch at x/2 = -40 too *)
      let vgs = op.Mosfet.vgs in
      let wide = Array.make 10 I.zero in
      wide.(0) <- I.make vgs (vgs +. 0.5);
      wide.(1) <- pt op.Mosfet.vds;
      wide.(2) <- pt op.Mosfet.vbs;
      ignore (D.ekv_into base ~vth0 ~kp ~lambda0 ~w ~l wide : bool);
      List.iter
        (fun t ->
          buf.(0) <- vgs +. (0.5 *. t);
          buf.(1) <- op.Mosfet.vds;
          buf.(2) <- op.Mosfet.vbs;
          Mosfet.linearise m ~w ~l buf;
          List.iteri
            (fun k name -> enclose ("ranged " ^ name) wide.(k + 3) buf.(k + 3))
            [ "ids"; "gm"; "gds"; "gmb"; "vth"; "vdsat" ])
        [ 0.; 0.25; 0.5; 0.75; 1. ];
      true)

let test_device_instances () =
  let cov = { reversed = 0; above_40 = 0; below_40 = 0; clamped = 0 } in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 2026 |]) (device_property cov);
  List.iter
    (fun (edge, hits) ->
      if hits = 0 then Alcotest.failf "no random case reached %s" edge)
    [
      ("vds < 0", cov.reversed);
      ("x/2 > 40", cov.above_40);
      ("x/2 < -40", cov.below_40);
      ("vbs > phi", cov.clamped);
    ]

(* ---------- AC stamps ---------- *)

(* Mna.assemble_ac_into at the operating point against the interval
   replay of the same dense sys's plan, MOSFETs at point operating
   points: every G slot, C slot and right-hand-side entry is enclosed. *)
let test_ac_stamp_instances () =
  List.iter
    (fun (name, (circuit, _)) ->
      let sys = Mna.sys circuit in
      let layout = Mna.sys_layout sys in
      let x =
        match Dcop.solve ~sys circuit with
        | Ok op -> op.Dcop.x
        | Error e -> Alcotest.fail (Dcop.error_to_string e)
      in
      let ops = Mna.mos_operating_points circuit ~x in
      let cs = Mna.sys_complex sys in
      let rhs = Mna.assemble_ac_into cs circuit layout ~ops:(fun n -> List.assoc n ops) in
      let n = Mna.size layout and plan = Mna.plan layout in
      let g = Array.make (n * n) I.zero and c = Array.make (n * n) I.zero in
      let irhs = Array.make n (I.zero, I.zero) in
      Array.iteri
        (fun di dev ->
          let sl = plan.Mna.slots.(di) in
          D.stamp_linear_ac g c sl dev;
          D.source_ac
            ~lift:(fun negate a -> (pt (if negate then -.a else a), I.zero))
            ~add:(fun (a, b) (a', b') -> (I.add a a', I.add b b'))
            irhs ~branch:plan.Mna.branch.(di) dev;
          match dev with
          | Device.Mosfet { name; _ } ->
              let (op : Mosfet.op) = List.assoc name ops in
              D.stamp_mos_g g sl ~gm:(pt op.gm) ~gds:(pt op.gds) ~gmb:(pt op.gmb);
              D.stamp_mos_c c sl ~cgs:(pt op.cgs) ~cgd:(pt op.cgd)
                ~cdb:(pt op.cdb) ~csb:(pt op.csb)
          | _ -> ())
        (Circuit.devices circuit);
      D.stamp_diag g plan.Mna.diag (pt D.leak);
      let check what (i : I.t) x =
        if not (I.contains i x) then
          Alcotest.failf "%s %s: %s does not contain %h" name what (I.to_string i) x
      in
      Alcotest.(check int) (name ^ " dense G slots") (n * n)
        (Array.length cs.Yield_numeric.Linsys.gvalues);
      for k = 0 to (n * n) - 1 do
        check (Printf.sprintf "G slot %d" k) g.(k) cs.Yield_numeric.Linsys.gvalues.(k);
        check (Printf.sprintf "C slot %d" k) c.(k) cs.Yield_numeric.Linsys.cvalues.(k)
      done;
      Array.iteri
        (fun i (re, im) ->
          check (Printf.sprintf "rhs %d re" i) re rhs.(i).Complex.re;
          check (Printf.sprintf "rhs %d im" i) im rhs.(i).Complex.im)
        irhs)
    [
      ("ota", Yield_circuits.Ota_testbench.build Yield_circuits.Ota.default_params);
      ( "miller",
        Yield_circuits.Miller_testbench.build Yield_circuits.Miller.default_params );
    ]

(* ---------- verdicts ---------- *)

(* the default designs against a 60 dB gain window, at the two box sizes
   the proof decides: verdict and verified slice count *)
let test_pinned_verdicts () =
  let window = { CL.min_gain_db = 60.; min_pm_deg = 0. } in
  let freqs = Tb.freqs_of Tb.default_conditions in
  let ota = Yield_circuits.Ota_testbench.build Yield_circuits.Ota.default_params in
  let miller =
    Yield_circuits.Miller_testbench.build Yield_circuits.Miller.default_params
  in
  List.iter
    (fun (name, (circuit, out), k, verdict, slices) ->
      let r = CL.analyse_circuit ~k_sigma:k ~window ~freqs ~out circuit in
      let what = Printf.sprintf "%s k=%g" name k in
      Alcotest.(check string) (what ^ " verdict") (CL.verdict_to_string verdict)
        (CL.verdict_to_string r.CL.verdict);
      Alcotest.(check int) (what ^ " slices") slices (List.length r.CL.slices))
    [
      ("ota", ota, 0.25, CL.Provably_fail, 1);
      ("ota", ota, 0.5, CL.Provably_fail, 4);
      ("miller", miller, 0.25, CL.Provably_pass, 1);
      ("miller", miller, 0.5, CL.Provably_pass, 4);
    ]

let suites =
  [
    ( "analyse.device_interval",
      [
        Alcotest.test_case "device equations enclose Mosfet" `Quick
          test_device_instances;
        Alcotest.test_case "AC stamps enclose Mna" `Quick test_ac_stamp_instances;
        Alcotest.test_case "pinned corner verdicts" `Quick test_pinned_verdicts;
      ] );
  ]
