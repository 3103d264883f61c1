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

let w_min = 10e-6

let w_max = 60e-6

let l_min = 0.35e-6

let l_max = 4e-6

let param_names = [| "w1"; "l1"; "w2"; "l2"; "w3"; "l3"; "w4"; "l4" |]

let name = "ota"

let param_ranges =
  Array.map
    (fun name ->
      if name.[0] = 'w' then Genome.range name ~lo:w_min ~hi:w_max
      else Genome.range name ~lo:l_min ~hi:l_max)
    param_names

let params_of_array a =
  match a with
  | [| w1; l1; w2; l2; w3; l3; w4; l4 |] -> { w1; l1; w2; l2; w3; l3; w4; l4 }
  | _ -> invalid_arg "Ota.params_of_array: need 8 values"

let params_to_array p = [| p.w1; p.l1; p.w2; p.l2; p.w3; p.l3; p.w4; p.l4 |]

let default_params =
  {
    w1 = 30e-6;
    l1 = 1e-6;
    w2 = 30e-6;
    l2 = 1e-6;
    w3 = 30e-6;
    l3 = 1e-6;
    w4 = 30e-6;
    l4 = 1e-6;
  }

let mirror_factor p = p.w2 /. p.l2 /. (p.w1 /. p.l1)

let input_pair_w = 30e-6

let input_pair_l = 1e-6

let bias_current = 20e-6

let symmetric_pairs =
  [ ("M1", "M2"); ("M3", "M4"); ("M5", "M6"); ("M7", "M8"); ("M9", "M10") ]

let add circuit ~prefix ~tech ~params:p ~inp ~inn ~out ~vdd ~vss =
  let nm = tech.Tech.nmos and pm = tech.Tech.pmos in
  let node suffix = prefix ^ suffix in
  let n1 = node "n1"
  and n2 = node "n2"
  and n3 = node "n3"
  and nbias = node "nbias"
  and ntail = node "ntail" in
  let mos name ~d ~g ~s ~b ~model ~w ~l =
    Circuit.add_mosfet circuit ~name:(prefix ^ name) ~d ~g ~s ~b ~model ~w ~l
  in
  (* differential pair *)
  mos "M1" ~d:n1 ~g:inp ~s:ntail ~b:vss ~model:nm ~w:input_pair_w
    ~l:input_pair_l;
  mos "M2" ~d:n2 ~g:inn ~s:ntail ~b:vss ~model:nm ~w:input_pair_w
    ~l:input_pair_l;
  (* PMOS diode loads *)
  mos "M3" ~d:n1 ~g:n1 ~s:vdd ~b:vdd ~model:pm ~w:p.w1 ~l:p.l1;
  mos "M4" ~d:n2 ~g:n2 ~s:vdd ~b:vdd ~model:pm ~w:p.w1 ~l:p.l1;
  (* PMOS mirror outputs: M5 feeds the NMOS mirror, M6 drives the output.
     The signal path from inp goes M1 -> n1 -> M5 -> n3 -> M8 -> out, and
     from inn goes M2 -> n2 -> M6 -> out. *)
  mos "M5" ~d:n3 ~g:n1 ~s:vdd ~b:vdd ~model:pm ~w:p.w2 ~l:p.l2;
  mos "M6" ~d:out ~g:n2 ~s:vdd ~b:vdd ~model:pm ~w:p.w2 ~l:p.l2;
  (* NMOS output mirror *)
  mos "M7" ~d:n3 ~g:n3 ~s:vss ~b:vss ~model:nm ~w:p.w3 ~l:p.l3;
  mos "M8" ~d:out ~g:n3 ~s:vss ~b:vss ~model:nm ~w:p.w3 ~l:p.l3;
  (* tail mirror *)
  mos "M9" ~d:nbias ~g:nbias ~s:vss ~b:vss ~model:nm ~w:p.w4 ~l:p.l4;
  mos "M10" ~d:ntail ~g:nbias ~s:vss ~b:vss ~model:nm ~w:p.w4 ~l:p.l4;
  Circuit.add_isource circuit ~name:(prefix ^ "IB") vdd nbias bias_current;
  (* initial guesses: PMOS gates one |vgs| below vdd, NMOS diodes near
     0.75 V, tail slightly below the input common mode *)
  let vdd_guess = tech.Tech.vdd in
  Circuit.nodeset circuit (Circuit.node circuit n1) (vdd_guess -. 1.0);
  Circuit.nodeset circuit (Circuit.node circuit n2) (vdd_guess -. 1.0);
  Circuit.nodeset circuit (Circuit.node circuit n3) 0.75;
  Circuit.nodeset circuit (Circuit.node circuit nbias) 0.75;
  Circuit.nodeset circuit (Circuit.node circuit ntail) 0.6
