module Circuit = Yield_spice.Circuit
module Genome = Yield_ga.Genome
module Tech = Yield_process.Tech

type params = {
  w1 : float;
  l1 : float;
  w2 : float;
  l2 : float;
  w3 : float;
  l3 : float;
  w4 : float;
  l4 : float;
}

let param_names = [| "w1"; "l1"; "w2"; "l2"; "w3"; "l3"; "w4"; "l4" |]

let name = "miller"

let param_ranges =
  Array.map
    (fun name ->
      if name.[0] = 'w' then Genome.range name ~lo:10e-6 ~hi:60e-6
      else Genome.range name ~lo:0.35e-6 ~hi:4e-6)
    param_names

let params_of_array = function
  | [| w1; l1; w2; l2; w3; l3; w4; l4 |] -> { w1; l1; w2; l2; w3; l3; w4; l4 }
  | _ -> invalid_arg "Miller.params_of_array: need 8 values"

let params_to_array p = [| p.w1; p.l1; p.w2; p.l2; p.w3; p.l3; p.w4; p.l4 |]

let default_params =
  {
    w1 = 20e-6;
    l1 = 1e-6;
    w2 = 60e-6;
    l2 = 0.5e-6;
    w3 = 30e-6;
    l3 = 1e-6;
    w4 = 30e-6;
    l4 = 1e-6;
  }

let compensation_cap = 4e-12

let nulling_resistor = 800.

let bias_current = 20e-6

let input_pair_w = 30e-6

let input_pair_l = 1e-6

let symmetric_pairs = [ ("M1", "M2"); ("M3", "M4"); ("M5", "M8") ]

let add circuit ~prefix ~tech ~params:p ~inp ~inn ~out ~vdd ~vss =
  let nm = tech.Tech.nmos and pm = tech.Tech.pmos in
  let node suffix = prefix ^ suffix in
  let n1 = node "n1"
  and n2 = node "n2"
  and nz = node "nz"
  and nbias = node "nbias"
  and ntail = node "ntail" in
  let mos name ~d ~g ~s ~b ~model ~w ~l =
    Circuit.add_mosfet circuit ~name:(prefix ^ name) ~d ~g ~s ~b ~model ~w ~l
  in
  (* input pair; the mirror diode sits on M1's side so M1's gate inverts
     through two stages *)
  mos "M1" ~d:n1 ~g:inp ~s:ntail ~b:vss ~model:nm ~w:input_pair_w
    ~l:input_pair_l;
  mos "M2" ~d:n2 ~g:inn ~s:ntail ~b:vss ~model:nm ~w:input_pair_w
    ~l:input_pair_l;
  mos "M3" ~d:n1 ~g:n1 ~s:vdd ~b:vdd ~model:pm ~w:p.w1 ~l:p.l1;
  mos "M4" ~d:n2 ~g:n1 ~s:vdd ~b:vdd ~model:pm ~w:p.w1 ~l:p.l1;
  (* second stage: PMOS common source with NMOS sink *)
  mos "M6" ~d:out ~g:n2 ~s:vdd ~b:vdd ~model:pm ~w:p.w2 ~l:p.l2;
  mos "M7" ~d:out ~g:nbias ~s:vss ~b:vss ~model:nm ~w:p.w3 ~l:p.l3;
  (* tail / bias mirror *)
  mos "M5" ~d:ntail ~g:nbias ~s:vss ~b:vss ~model:nm ~w:p.w4 ~l:p.l4;
  mos "M8" ~d:nbias ~g:nbias ~s:vss ~b:vss ~model:nm ~w:p.w4 ~l:p.l4;
  Circuit.add_isource circuit ~name:(prefix ^ "IB") vdd nbias bias_current;
  (* Miller compensation with nulling resistor: n2 -- Rz -- nz -- Cc -- out *)
  Circuit.add_resistor circuit ~name:(prefix ^ "RZ") n2 nz nulling_resistor;
  Circuit.add_capacitor circuit ~name:(prefix ^ "CC") nz out compensation_cap;
  let vdd_guess = tech.Tech.vdd in
  Circuit.nodeset circuit (Circuit.node circuit n1) (vdd_guess -. 0.9);
  Circuit.nodeset circuit (Circuit.node circuit n2) (vdd_guess -. 0.9);
  Circuit.nodeset circuit (Circuit.node circuit nz) (vdd_guess -. 0.9);
  Circuit.nodeset circuit (Circuit.node circuit nbias) 0.75;
  Circuit.nodeset circuit (Circuit.node circuit ntail) 0.6
