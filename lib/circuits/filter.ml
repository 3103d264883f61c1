module Circuit = Yield_spice.Circuit
module Mna = Yield_spice.Mna
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Measure = Yield_spice.Measure
module Genome = Yield_ga.Genome
module Wbga = Yield_ga.Wbga
module Ga = Yield_ga.Ga

type amp = { gain_db : float; rout : float }

let gm_of_amp amp = 10. ** (amp.gain_db /. 20.) /. amp.rout

type caps = { c1 : float; c2 : float; c3 : float }

let cap_ranges =
  [|
    Genome.log_range "c1" ~lo:5e-12 ~hi:400e-12;
    Genome.log_range "c2" ~lo:2e-12 ~hi:200e-12;
    Genome.log_range "c3" ~lo:0.1e-12 ~hi:20e-12;
  |]

let caps_of_array = function
  | [| c1; c2; c3 |] -> { c1; c2; c3 }
  | _ -> invalid_arg "Filter.caps_of_array: need 3 values"

type spec = {
  f_pass : float;
  ripple_db : float;
  f_stop : float;
  atten_db : float;
}

let default_spec =
  { f_pass = 1e6; ripple_db = 1.; f_stop = 10e6; atten_db = 30. }

(* One behavioural OTA: current g*(v+ - v-) INTO the output node, shunted by
   rout.  With our VCCS convention (current gm*(in_p - in_n) leaves out_p),
   injecting requires the input pair swapped. *)
let add_behavioural_ota circuit ~name amp ~vplus ~vminus ~out =
  let g = gm_of_amp amp in
  Circuit.add_vccs circuit ~name:(name ^ ".G") ~out_p:out ~out_n:"0"
    ~in_p:vminus ~in_n:vplus g;
  Circuit.add_resistor circuit ~name:(name ^ ".RO") out "0" amp.rout

let add_caps circuit caps =
  Circuit.add_capacitor circuit ~name:"C1" "v1" "0" caps.c1;
  Circuit.add_capacitor circuit ~name:"C2" "out" "0" caps.c2;
  Circuit.add_capacitor circuit ~name:"C3" "v1" "out" caps.c3

let build amp caps =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VIN" ~ac:1. "in" "0" 0.;
  add_behavioural_ota c ~name:"OTA1" amp ~vplus:"in" ~vminus:"out" ~out:"v1";
  add_behavioural_ota c ~name:"OTA2" amp ~vplus:"v1" ~vminus:"out" ~out:"out";
  add_caps c caps;
  (c, "out")

let default_freqs = lazy (Ac.default_freqs ~per_decade:20 ~f_lo:1e3 ~f_hi:1e8 ())

let response_of_circuit ?sys ?freqs circuit ~out =
  let freqs = match freqs with Some f -> f | None -> Lazy.force default_freqs in
  let sys = Mna.default_sys sys circuit in
  match Dcop.solve ~sys circuit with
  | Error _ -> None
  | Ok op -> Some (Ac.transfer_by_name ~sys circuit op ~out ~freqs)

(* Each builder's circuits share one topology whatever their values, so
   each gets one solver session, compiled by its first caller and shared
   across domains *)
let sessions : ([ `Behavioural | `Transistor ] * Mna.sys) list Atomic.t =
  Atomic.make []

let session kind circuit =
  Testbench.cached sessions kind (fun _ circuit -> Mna.sys circuit) circuit

let response ?freqs amp caps =
  let circuit, out = build amp caps in
  response_of_circuit ~sys:(session `Behavioural circuit) ?freqs circuit ~out

let build_transistor ?(tech = Yield_process.Tech.c35) ?(vcm = 1.65) ota_params
    caps =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"VDD" "vdd" "0" tech.Yield_process.Tech.vdd;
  Circuit.add_vsource c ~name:"VIN" ~ac:1. "in" "0" vcm;
  (* the OTA's [inp] port (M1 gate) is its inverting input *)
  Ota.add c ~prefix:"x1." ~tech ~params:ota_params ~inp:"out" ~inn:"in"
    ~out:"v1" ~vdd:"vdd" ~vss:"0";
  Ota.add c ~prefix:"x2." ~tech ~params:ota_params ~inp:"out" ~inn:"v1"
    ~out:"out" ~vdd:"vdd" ~vss:"0";
  add_caps c caps;
  Circuit.nodeset c (Circuit.node c "v1") vcm;
  Circuit.nodeset c (Circuit.node c "out") vcm;
  (c, "out")

let response_transistor ?freqs ?tech ?vcm ota_params caps =
  let circuit, out = build_transistor ?tech ?vcm ota_params caps in
  response_of_circuit ~sys:(session `Transistor circuit) ?freqs circuit ~out

type check = {
  passband_margin_db : float;
  stopband_margin_db : float;
  meets_spec : bool;
}

let check spec (bode : Ac.bode) =
  let mags = Measure.magnitudes_db bode in
  let dc = mags.(0) in
  let pass_margin = ref infinity and stop_margin = ref infinity in
  Array.iteri
    (fun i f ->
      if f <= spec.f_pass then
        pass_margin :=
          Float.min !pass_margin (spec.ripple_db -. Float.abs (mags.(i) -. dc));
      if f >= spec.f_stop then
        stop_margin := Float.min !stop_margin (dc -. mags.(i) -. spec.atten_db))
    bode.Ac.freqs;
  let pm = !pass_margin and sm = !stop_margin in
  {
    passband_margin_db = pm;
    stopband_margin_db = sm;
    meets_spec = pm >= 0. && sm >= 0.;
  }

let evaluate amp spec caps =
  match response amp caps with
  | None -> Error "filter DC solve failed"
  | Some bode -> Ok (check spec bode)

type optimise_result = {
  best : caps;
  best_check : check;
  front : (caps * check) array;
  evaluations : int;
}

let optimise ?(population = 30) ?(generations = 40) amp spec rng =
  let evaluate_array arr =
    let caps = caps_of_array arr in
    match evaluate amp spec caps with
    | Error _ -> None
    | Ok c -> Some [| c.passband_margin_db; c.stopband_margin_db |]
  in
  (* blend crossover + frequent small mutations: the in-spec region is a
     narrow slice of the capacitance space, and arithmetic recombination of
     the two mask-margin extremes lands inside it reliably *)
  let config =
    {
      Ga.default_config with
      Ga.population_size = population;
      generations;
      crossover = Yield_ga.Operators.Blend 0.3;
      mutation = Yield_ga.Operators.Gaussian { sigma = 0.05; rate = 0.4 };
    }
  in
  let result =
    Wbga.run ~config ~param_ranges:cap_ranges
      ~objectives:
        [|
          { Wbga.name = "passband_margin"; maximise = true };
          { Wbga.name = "stopband_margin"; maximise = true };
        |]
      ~rng ~evaluate:evaluate_array ()
  in
  let to_pair (e : Wbga.entry) =
    let caps = caps_of_array e.Wbga.params in
    let margins = e.Wbga.objectives in
    ( caps,
      {
        passband_margin_db = margins.(0);
        stopband_margin_db = margins.(1);
        meets_spec = margins.(0) >= 0. && margins.(1) >= 0.;
      } )
  in
  let front = Array.map to_pair result.Wbga.front in
  if Array.length front = 0 then failwith "Filter.optimise: no evaluable design";
  (* best = maximin of the two margins: the most robustly in-spec design *)
  let score (_, c) = Float.min c.passband_margin_db c.stopband_margin_db in
  let best, best_check =
    Array.fold_left
      (fun acc cand -> if score cand > score acc then cand else acc)
      front.(0) front
  in
  { best; best_check; front; evaluations = result.Wbga.evaluations }
