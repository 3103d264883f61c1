module Linsys = Yield_numeric.Linsys

type flicker = { kf_n : float; kf_p : float }

let default_flicker = { kf_n = 1e-24; kf_p = 3e-25 }

let no_flicker = { kf_n = 0.; kf_p = 0. }

type contribution = {
  device : string;
  kind : [ `Thermal | `Flicker ];
  psd_v2_per_hz : float;
}

type point = {
  freq : float;
  total_v2_per_hz : float;
  contributions : contribution list;
}

let temperature = 300.

let boltzmann = 1.380649e-23

(* a current-noise source between two nodes with PSD (A^2/Hz); [kind]
   carries a frequency dependence for flicker *)
type source = {
  name : string;
  from_node : Device.node;
  to_node : Device.node;
  psd : float -> float;  (* A^2/Hz at a given frequency *)
  src_kind : [ `Thermal | `Flicker ];
}

let collect_sources ?models flicker circuit (op : Dcop.t) =
  let four_kt = 4. *. boltzmann *. temperature in
  let acc = ref [] in
  Array.iteri
    (fun di dev ->
      match dev with
      | Device.Resistor { name; n1; n2; ohms; _ } ->
          acc :=
            {
              name;
              from_node = n1;
              to_node = n2;
              psd = (fun _ -> four_kt /. ohms);
              src_kind = `Thermal;
            }
            :: !acc
      | Device.Mosfet { name; d; s; model; w; l; _ } ->
          let model = Mna.model_override models di model in
          let mos = Dcop.mos_op op name in
          let gm = mos.Mosfet.gm in
          let thermal = four_kt *. (2. /. 3.) *. gm in
          acc :=
            {
              name;
              from_node = d;
              to_node = s;
              psd = (fun _ -> thermal);
              src_kind = `Thermal;
            }
            :: !acc;
          let kf =
            match model.Mosfet.polarity with
            | Mosfet.Nmos -> flicker.kf_n
            | Mosfet.Pmos -> flicker.kf_p
          in
          if kf > 0. then begin
            let scale = kf *. gm *. gm /. (model.Mosfet.cox *. w *. l) in
            acc :=
              {
                name;
                from_node = d;
                to_node = s;
                psd = (fun f -> scale /. Float.max f 1e-3);
                src_kind = `Flicker;
              }
              :: !acc
          end
      | Device.Capacitor _ | Device.Vsource _ | Device.Isource _
      | Device.Vccs _ ->
          ())
    (Circuit.devices circuit);
  List.rev !acc

let output_noise ?(flicker = default_flicker) ?sys ?models circuit op ~out
    ~freqs =
  let sys = Mna.default_sys sys circuit in
  let layout = Mna.sys_layout sys and cs = Mna.sys_complex sys in
  let ops name = Dcop.mos_op op name in
  let _ = Mna.assemble_ac_into cs circuit layout ~ops in
  let sources = collect_sources ?models flicker circuit op in
  let size = Mna.size layout in
  Array.map
    (fun freq ->
      let omega = 2. *. Float.pi *. freq in
      let solve = cs.Linsys.factor ~omega in
      let transfer_mag2 src =
        (* unit current injected from [from_node] into [to_node] *)
        let rhs = Array.make size Complex.zero in
        if src.from_node <> Device.ground then
          rhs.(src.from_node - 1) <- { Complex.re = -1.; im = 0. };
        if src.to_node <> Device.ground then
          rhs.(src.to_node - 1) <- { Complex.re = 1.; im = 0. };
        let x = solve rhs in
        if out = Device.ground then 0.
        else begin
          let z = x.(out - 1) in
          (z.Complex.re *. z.Complex.re) +. (z.Complex.im *. z.Complex.im)
        end
      in
      let contributions =
        List.map
          (fun src ->
            {
              device = src.name;
              kind = src.src_kind;
              psd_v2_per_hz = src.psd freq *. transfer_mag2 src;
            })
          sources
      in
      let total =
        List.fold_left (fun acc c -> acc +. c.psd_v2_per_hz) 0. contributions
      in
      let sorted =
        List.sort
          (fun a b -> Float.compare b.psd_v2_per_hz a.psd_v2_per_hz)
          contributions
      in
      { freq; total_v2_per_hz = total; contributions = sorted })
    freqs

let input_referred points ~gain =
  if Array.length points <> Array.length gain.Ac.freqs then
    invalid_arg "Noise.input_referred: frequency grids differ";
  Array.mapi
    (fun i p ->
      if p.freq <> gain.Ac.freqs.(i) then
        invalid_arg "Noise.input_referred: frequency grids differ";
      let h = gain.Ac.response.(i) in
      let mag2 = (h.Complex.re *. h.Complex.re) +. (h.Complex.im *. h.Complex.im) in
      (p.freq, if mag2 > 0. then p.total_v2_per_hz /. mag2 else infinity))
    points

let integrate_rms pairs =
  let n = Array.length pairs in
  if n < 2 then invalid_arg "Noise.integrate_rms: need at least two points";
  let acc = ref 0. in
  for i = 1 to n - 1 do
    let f0, p0 = pairs.(i - 1) and f1, p1 = pairs.(i) in
    acc := !acc +. (0.5 *. (p0 +. p1) *. (f1 -. f0))
  done;
  sqrt !acc
