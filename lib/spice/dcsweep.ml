type t = {
  sweep_values : float array;
  solutions : float array array;
  layout : Mna.layout;
}

let set_source_value circuit ~source value =
  Circuit.map_devices circuit (fun dev ->
      match dev with
      | Device.Vsource v when v.name = source ->
          Device.Vsource { v with dc = value }
      | Device.Isource i when i.name = source ->
          Device.Isource { i with dc = value }
      | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
      | Device.Isource _ | Device.Vccs _ | Device.Mosfet _ ->
          dev)

let validate_source circuit ~source =
  match Circuit.find_device circuit source with
  | Device.Vsource _ | Device.Isource _ -> ()
  | Device.Resistor _ | Device.Capacitor _ | Device.Vccs _ | Device.Mosfet _ ->
      invalid_arg ("Dcsweep.run: " ^ source ^ " is not a source")

let run ?options ?sys ?models circuit ~source ~values =
  if Array.length values = 0 then invalid_arg "Dcsweep.run: empty sweep";
  validate_source circuit ~source;
  (* every swept circuit shares the topology, so one session serves all *)
  let sys = Mna.default_sys sys circuit in
  let layout = Mna.sys_layout sys in
  let solutions = Array.make (Array.length values) [||] in
  let exception Failed of Dcop.error in
  let previous = ref None in
  match
    Array.iteri
      (fun i value ->
        let swept = set_source_value circuit ~source value in
        (* warm start: seed the nodesets from the previous solution *)
        (match !previous with
        | None -> ()
        | Some x ->
            for node = 1 to Mna.n_nodes layout do
              Circuit.nodeset swept node (Mna.voltage x node)
            done);
        match Dcop.solve ?options ~sys ?models swept with
        | Error e -> raise (Failed e)
        | Ok op ->
            solutions.(i) <- Array.copy op.Dcop.x;
            previous := Some op.Dcop.x)
      values
  with
  | () -> Ok { sweep_values = Array.copy values; solutions; layout }
  | exception Failed e -> Error e

let voltage t node = Array.map (fun x -> Mna.voltage x node) t.solutions

let voltage_by_name t circuit name = voltage t (Circuit.node circuit name)

let crossing_input ~sweep ~output ~level =
  let n = Array.length sweep in
  if n <> Array.length output then
    invalid_arg "Dcsweep.crossing_input: length mismatch";
  let rec scan i =
    if i >= n - 1 then None
    else begin
      let a = output.(i) -. level and b = output.(i + 1) -. level in
      if a = 0. then Some sweep.(i)
      else if (a < 0. && b >= 0.) || (a > 0. && b <= 0.) then begin
        let u = a /. (a -. b) in
        Some (sweep.(i) +. (u *. (sweep.(i + 1) -. sweep.(i))))
      end
      else scan (i + 1)
    end
  in
  scan 0

let output_range output =
  if Array.length output = 0 then invalid_arg "Dcsweep.output_range: empty";
  ( Array.fold_left Float.min infinity output,
    Array.fold_left Float.max neg_infinity output )
