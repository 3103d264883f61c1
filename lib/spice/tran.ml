module Vec = Yield_numeric.Vec
module Lu = Yield_numeric.Lu
module Linsys = Yield_numeric.Linsys

type options = {
  t_stop : float;
  dt : float;
  max_newton : int;
  vtol : float;
}

let options ?(max_newton = 60) ?(vtol = 1e-7) ~t_stop ~dt () =
  if t_stop <= 0. || dt <= 0. then invalid_arg "Tran.options: non-positive times";
  if dt > t_stop then invalid_arg "Tran.options: dt exceeds t_stop";
  { t_stop; dt; max_newton; vtol }

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
   from the operating point at the start of every step. *)
type cap_slot = {
  a : Device.node;
  b : Device.node;
  mutable c : float;
  mutable i_prev : float;  (* branch current at the last accepted point *)
}

(* slots for one device, in a fixed order so state survives across steps *)
let slots_of_device dev =
  match dev with
  | Device.Capacitor { n1; n2; farads; _ } ->
      [ { a = n1; b = n2; c = farads; i_prev = 0. } ]
  | Device.Mosfet { d; g; s; b; _ } ->
      [
        { a = g; b = s; c = 0.; i_prev = 0. };
        { a = g; b = d; c = 0.; i_prev = 0. };
        { a = d; b; c = 0.; i_prev = 0. };
        { a = s; b; c = 0.; i_prev = 0. };
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
  let size = Mna.size layout in
  let devices = Circuit.devices circuit in
  (* one numeric workspace reused across all steps and Newton iterations *)
  let rs = Mna.sys_real sys in
  match Dcop.solve ~sys ?models (initial_circuit circuit) with
  | Error e -> Error (Dc_failed e)
  | Ok op0 -> begin
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
      times.(0) <- 0.;
      solutions.(0) <- Array.copy op0.Dcop.x;
      let x_prev = ref (Array.copy op0.Dcop.x) in
      let failed = ref None in
      (* One Newton solve of the companion-model system at time [t]. *)
      let step ~first t =
        let h = options.dt in
        let integ_g c = if first then c /. h else 2. *. c /. h in
        let x = Array.copy !x_prev in
        let rec newton iter =
          if iter > options.max_newton then None
          else begin
            rs.Linsys.reset ();
            let add = rs.Linsys.add in
            let rhs = Vec.create size in
            for i = 0 to Mna.n_nodes layout - 1 do
              add i i 1e-12
            done;
            Array.iteri
              (fun di dev ->
                match dev with
                | Device.Resistor { n1; n2; ohms; _ } ->
                    Mna.stamp_conductance_into add n1 n2 (1. /. ohms)
                | Device.Capacitor _ | Device.Mosfet _ ->
                    (* caps handled via slots below; MOS conductive part
                       stamped here *)
                    (match dev with
                    | Device.Mosfet { d; g; s; b; model; w; l; name = _ } ->
                        let model = Mna.model_override models di model in
                        ignore
                          (Mna.stamp_mosfet_dc_into add rhs ~x ~d ~g ~s ~b
                             ~model ~w ~l)
                    | _ -> ());
                    List.iter
                      (fun slot ->
                        let geq = integ_g slot.c in
                        let v_old =
                          Mna.voltage !x_prev slot.a -. Mna.voltage !x_prev slot.b
                        in
                        let i_hist =
                          if first then geq *. v_old
                          else (geq *. v_old) +. slot.i_prev
                        in
                        Mna.stamp_conductance_into add slot.a slot.b geq;
                        Mna.inject rhs slot.a i_hist;
                        Mna.inject rhs slot.b (-.i_hist))
                      slots.(di)
                | Device.Vsource { name; npos; nneg; dc; wave; _ } ->
                    Mna.stamp_branch_into add layout ~name ~npos ~nneg;
                    rhs.(Mna.branch_index layout name) <-
                      source_value_at ~dc ~wave t
                | Device.Isource { npos; nneg; dc; wave; _ } ->
                    let value = source_value_at ~dc ~wave t in
                    Mna.inject rhs npos (-.value);
                    Mna.inject rhs nneg value
                | Device.Vccs { out_p; out_n; in_p; in_n; gm; _ } ->
                    Mna.stamp_transconductance_into add ~out_p ~out_n ~in_p
                      ~in_n gm)
              devices;
            match rs.Linsys.solve rhs with
            | exception Lu.Singular _ -> None
            | x_new ->
                let delta = ref 0. in
                for k = 0 to size - 1 do
                  let dk = x_new.(k) -. x.(k) in
                  delta := Float.max !delta (Float.abs dk);
                  let limit = 0.5 in
                  let dk =
                    if k < Mna.n_nodes layout then
                      Float.max (-.limit) (Float.min limit dk)
                    else dk
                  in
                  x.(k) <- x.(k) +. dk
                done;
                if not (Array.for_all Float.is_finite x) then None
                else if !delta < options.vtol then Some x
                else newton (iter + 1)
          end
        in
        newton 0
      in
      (try
         for n = 1 to n_steps do
           let t = float_of_int n *. options.dt in
           match step ~first:(n = 1) t with
           | None ->
               failed := Some t;
               raise Exit
           | Some x ->
               (* accept: update capacitor branch currents and MOS caps *)
               let h = options.dt in
               Array.iteri
                 (fun di dev ->
                   List.iter
                     (fun slot ->
                       let geq =
                         if n = 1 then slot.c /. h else 2. *. slot.c /. h
                       in
                       let v_old =
                         Mna.voltage !x_prev slot.a -. Mna.voltage !x_prev slot.b
                       in
                       let v_new = Mna.voltage x slot.a -. Mna.voltage x slot.b in
                       let i_hist =
                         if n = 1 then geq *. v_old
                         else (geq *. v_old) +. slot.i_prev
                       in
                       slot.i_prev <- (geq *. v_new) -. i_hist)
                     slots.(di);
                   match dev with
                   | Device.Mosfet { d; g; s; b; model; w; l; name = _ } ->
                       let model = Mna.model_override models di model in
                       let vgs, vds, vbs =
                         let vd = Mna.voltage x d
                         and vg = Mna.voltage x g
                         and vs = Mna.voltage x s
                         and vb = Mna.voltage x b in
                         match model.Mosfet.polarity with
                         | Mosfet.Nmos -> (vg -. vs, vd -. vs, vb -. vs)
                         | Mosfet.Pmos -> (vs -. vg, vs -. vd, vs -. vb)
                       in
                       let op = Mosfet.eval model ~w ~l ~vgs ~vds ~vbs in
                       refresh_mos_slots slots.(di) op
                   | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
                   | Device.Isource _ | Device.Vccs _ ->
                       ())
                 devices;
               times.(n) <- t;
               solutions.(n) <- Array.copy x;
               x_prev := x
         done
       with Exit -> ());
      match !failed with
      | Some time -> Error (Step_failed { time })
      | None -> Ok { times; solutions; layout }
    end

let voltage result node =
  Array.map (fun x -> Mna.voltage x node) result.solutions

let voltage_by_name result circuit name =
  voltage result (Circuit.node circuit name)
