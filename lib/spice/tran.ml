module Linsys = Yield_numeric.Linsys

type options = { t_stop : float; dt : float }

let options ~t_stop ~dt () =
  if t_stop <= 0. || dt <= 0. then invalid_arg "Tran.options: non-positive times";
  if dt > t_stop then invalid_arg "Tran.options: dt exceeds t_stop";
  { t_stop; dt }

type t = {
  times : float array;
  solutions : float array array;
  layout : Mna.layout;
}

type error = Dc_failed of Dcop.error | Step_failed of { time : float }

let error_to_string = function
  | Dc_failed e -> "tran: initial " ^ Dcop.error_to_string e
  | Step_failed { time } -> Printf.sprintf "tran: Newton failed at t = %g s" time

(* A capacitive branch tracked through the integration: explicit capacitors
   keep a fixed value; MOS intrinsic/junction capacitances are refreshed
   from the operating point at the start of every step.  [group] is the
   offset of the branch's capacitive stamps in its device's plan slots. *)
type cap_slot = {
  a : Device.node;
  b : Device.node;
  group : int;
  mutable c : float;
  mutable i_prev : float;  (* branch current at the last accepted point *)
}

(* slots for one device, in a fixed order so state survives across steps *)
let slots_of_device dev =
  match dev with
  | Device.Capacitor { n1; n2; farads; _ } ->
      [ { a = n1; b = n2; group = 0; c = farads; i_prev = 0. } ]
  | Device.Mosfet { d; g; s; b; _ } ->
      [
        { a = g; b = s; group = 12; c = 0.; i_prev = 0. };
        { a = g; b = d; group = 16; c = 0.; i_prev = 0. };
        { a = d; b; group = 20; c = 0.; i_prev = 0. };
        { a = s; b; group = 24; c = 0.; i_prev = 0. };
      ]
  | Device.Resistor _ | Device.Vsource _ | Device.Isource _ | Device.Vccs _ ->
      []

let refresh_mos_slots slots (op : Mosfet.op) =
  match slots with
  | [ gs; gd; db; sb ] ->
      gs.c <- op.Mosfet.cgs;
      gd.c <- op.Mosfet.cgd;
      db.c <- op.Mosfet.cdb;
      sb.c <- op.Mosfet.csb
  | _ -> invalid_arg "Tran: malformed MOS slots"

let source_value_at ~dc ~wave t = Device.waveform_value wave ~dc t

(* initial operating point with every waveform frozen at t = 0 *)
let initial_circuit circuit =
  Circuit.map_devices circuit (fun dev ->
      match dev with
      | Device.Vsource ({ dc; wave; _ } as v) ->
          Device.Vsource { v with dc = source_value_at ~dc ~wave 0. }
      | Device.Isource ({ dc; wave; _ } as i) ->
          Device.Isource { i with dc = source_value_at ~dc ~wave 0. }
      | Device.Resistor _ | Device.Capacitor _ | Device.Vccs _
      | Device.Mosfet _ ->
          dev)

let run ?sys ?models options circuit =
  (* the initial operating point and every step share one session *)
  let sys = Mna.default_sys sys circuit in
  let layout = Mna.sys_layout sys in
  let devices = Circuit.devices circuit in
  match Dcop.solve ~sys ?models (initial_circuit circuit) with
  | Error e -> Error (Dc_failed e)
  | Ok op0 ->
      let slots = Array.map slots_of_device devices in
      (* prime MOS capacitances from the DC operating point *)
      Array.iteri
        (fun di dev ->
          match dev with
          | Device.Mosfet { name; _ } ->
              refresh_mos_slots slots.(di) (List.assoc name op0.Dcop.mos_ops)
          | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
          | Device.Isource _ | Device.Vccs _ ->
              ())
        devices;
      let n_steps = int_of_float (Float.ceil (options.t_stop /. options.dt)) in
      let times = Array.make (n_steps + 1) 0. in
      let solutions = Array.make (n_steps + 1) [||] in
      solutions.(0) <- op0.Dcop.x;
      (* every time point is one run of the DC Newton loop: up to 61
         factorisations, converged at a 1e-7 V step, node steps clamped at
         0.5 V *)
      let newton =
        {
          Dcop.default_options with
          max_iterations = 61;
          vtol = 1e-7;
          max_step = 0.5;
        }
      in
      let h = options.dt in
      (* the companion-model system at time [t] linearised at [x], in
         device order after the node diagonals' 1e-12 *)
      let assemble (w : Mna.dc_work) ~first ~x_prev t x =
        let rs = w.Mna.rs and rhs = w.Mna.rhs in
        let integ_g c = if first then c /. h else 2. *. c /. h in
        rs.Linsys.reset ();
        Array.fill rhs 0 (Array.length rhs) 0.;
        for i = 0 to Mna.n_nodes layout - 1 do
          rs.Linsys.add i i 1e-12
        done;
        Array.iteri
          (fun di dev ->
            (* the device's DC stamps, MOSFETs linearised at [x], replayed
               from the session's stamp plan *)
            Mna.stamp_device_dc rs layout ?models circuit di ~x
              ~scratch:w.Mna.scratch rhs;
            (* capacitor companion models, explicit and MOS *)
            List.iter
              (fun slot ->
                let geq = integ_g slot.c in
                let v_old = Mna.voltage x_prev slot.a -. Mna.voltage x_prev slot.b in
                let i_hist =
                  if first then geq *. v_old else (geq *. v_old) +. slot.i_prev
                in
                Mna.stamp_capacitance rs layout di ~group:slot.group geq;
                Mna.inject rhs slot.a i_hist;
                Mna.inject rhs slot.b (-.i_hist))
              slots.(di);
            match dev with
            | Device.Vsource { name; dc; wave; _ } ->
                rhs.(Mna.branch_index layout name) <- source_value_at ~dc ~wave t
            | Device.Isource { npos; nneg; dc; wave; _ } ->
                let value = source_value_at ~dc ~wave t in
                Mna.inject rhs npos (-.value);
                Mna.inject rhs nneg value
            | Device.Resistor _ | Device.Capacitor _ | Device.Vccs _
            | Device.Mosfet _ ->
                ())
          devices
      in
      (* accept the step from [x_prev] to [x]: update the capacitor branch
         currents and MOS capacitances *)
      let accept ~first ~x_prev x =
        Array.iteri
          (fun di dev ->
            List.iter
              (fun slot ->
                let geq = if first then slot.c /. h else 2. *. slot.c /. h in
                let v_old = Mna.voltage x_prev slot.a -. Mna.voltage x_prev slot.b in
                let v_new = Mna.voltage x slot.a -. Mna.voltage x slot.b in
                let i_hist =
                  if first then geq *. v_old else (geq *. v_old) +. slot.i_prev
                in
                slot.i_prev <- (geq *. v_new) -. i_hist)
              slots.(di);
            match dev with
            | Device.Mosfet { d; g; s; b; model; w; l; name = _ } ->
                let model =
                  match models with
                  | None -> model
                  | Some p -> Mosfet.with_params model p ~at:(3 * di)
                in
                refresh_mos_slots slots.(di)
                  (Mna.mos_operating_point model ~w ~l ~d ~g ~s ~b x)
            | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
            | Device.Isource _ | Device.Vccs _ ->
                ())
          devices
      in
      Mna.with_dc sys (fun w ->
          let n_nodes = Mna.n_nodes layout in
          let rec integrate n =
            if n > n_steps then Ok { times; solutions; layout }
            else begin
              let t = float_of_int n *. h and first = n = 1 in
              let x_prev = solutions.(n - 1) in
              let factored =
                Dcop.iterate w newton ~n_nodes ~x0:x_prev (fun w x ->
                    assemble w ~first ~x_prev t x)
              in
              if factored <= 0 then Error (Step_failed { time = t })
              else begin
                let x = Array.copy w.Mna.x in
                accept ~first ~x_prev x;
                times.(n) <- t;
                solutions.(n) <- x;
                integrate (n + 1)
              end
            end
          in
          integrate 1)

let voltage result node =
  Array.map (fun x -> Mna.voltage x node) result.solutions

let voltage_by_name result circuit name =
  voltage result (Circuit.node circuit name)
