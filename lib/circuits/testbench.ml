module Circuit = Yield_spice.Circuit
module Mna = Yield_spice.Mna
module Linsys = Yield_numeric.Linsys
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Measure = Yield_spice.Measure
module Noise = Yield_spice.Noise
module Tran = Yield_spice.Tran
module Measure_tran = Yield_spice.Measure_tran
module Device = Yield_spice.Device
module Tech = Yield_process.Tech
module Variation = Yield_process.Variation

type conditions = {
  tech : Tech.t;
  vcm : float;
  load_cap : float;
  f_lo : float;
  f_hi : float;
  points_per_decade : int;
  min_unity_gain_hz : float;
}

let default_conditions =
  {
    tech = Tech.c35;
    vcm = 1.65;
    load_cap = 3e-12;
    f_lo = 10.;
    f_hi = 1e9;
    points_per_decade = 10;
    min_unity_gain_hz = 10e6;
  }

type perf = {
  gain_db : float;
  phase_margin_deg : float;
  unity_gain_hz : float;
  f3db_hz : float;
  rout_est : float;
}

type step_perf = {
  slew_v_per_us : float;
  settling_1pct_s : float option;
  overshoot_pct : float;
  final_error_v : float;
}

(* Measure.unity_gain_freq, phase_margin_deg and f3db in one pass: the
   magnitudes and the unwrapped phase are computed once and measured with
   the same Measure primitives, so the result is bit-identical *)
let perf_of_bode conditions b =
  let gain_db = Measure.dc_gain_db b in
  let xs = b.Ac.freqs in
  let mags = Measure.magnitudes_db b in
  match Measure.crossing ~xs ~ys:mags ~level:0. () with
  | Some fu when Float.is_finite gain_db ->
      let phases = Measure.phases_deg_unwrapped b in
      let pm = 180. +. Measure.interp_at ~xs ~ys:phases fu ~log_x:true in
      let f3db =
        Option.value
          (Measure.crossing ~xs ~ys:mags ~level:(gain_db -. 3.) ())
          ~default:nan
      in
      let gain_lin = 10. ** (gain_db /. 20.) in
      let rout_est = gain_lin /. (2. *. Float.pi *. fu *. conditions.load_cap) in
      Some
        {
          gain_db;
          phase_margin_deg = pm;
          unity_gain_hz = fu;
          f3db_hz = f3db;
          rout_est;
        }
  | _ -> None

(* The prefix perf_of_bode reads: point 0, the first 0 dB crossing pair
   (i, i+1), the first (gain - 3 dB) crossing pair and the unwrapped phase
   up to fu.  fu is rounded from the log-interpolation on (i, i+1) and may
   land a hair past point i+1, where Measure.interp_at would read the pair
   (i+1, i+2) in the full sweep but clamp at the last point of a shorter
   one: so the sweep runs to i+2.  The crossings use Measure.crossing's
   own test, so NaN points never cross and a response without both
   crossings sweeps to the end.

   The answer is the number of further points that prefix needs whatever
   their values: until the 0 dB pair is seen it can still be (k, k+1),
   which needs k+2; until the -3 dB pair is seen it can still be
   (k, k+1), which needs k+1. *)
let sweep_stop () =
  let unity = ref (-1) and f3 = ref (-1) in
  (* the gain (point 0) and the previous point's magnitude, unboxed *)
  let mags = [| nan; nan |] in
  fun k z ->
    let m = Measure.magnitude_db z in
    if k = 0 then begin
      mags.(0) <- m;
      mags.(1) <- m;
      if Float.is_finite m then 2 else 0
    end
    else begin
      let prev = mags.(1) and level = mags.(0) -. 3. in
      if !unity < 0 && prev >= 0. && m < 0. then unity := k - 1;
      if !f3 < 0 && prev >= level && m < level then f3 := k - 1;
      mags.(1) <- m;
      if !unity < 0 then 2
      else if !f3 < 0 then 1
      else Stdlib.max 0 (!unity + 2 - k)
    end

let feasible conditions p =
  p.phase_margin_deg > 0. && p.unity_gain_hz >= conditions.min_unity_gain_hz

let objectives p = [| p.gain_db; p.phase_margin_deg |]

let freqs_of conditions =
  Ac.default_freqs ~per_decade:conditions.points_per_decade
    ~f_lo:conditions.f_lo ~f_hi:conditions.f_hi ()

module Make (A : Amplifier.S) = struct
  (* Variant testbenches.  [stimulus] selects where the unit AC source is
     applied; the DC arrangement never changes, so all variants share the
     same operating point by construction. *)
  type stimulus = Differential | Common_mode | Supply

  let build_variant conditions params stimulus =
    let c = Circuit.create () in
    let tech = conditions.tech in
    let vdd_ac =
      match stimulus with Supply -> 1. | Differential | Common_mode -> 0.
    in
    let vin_ac =
      match stimulus with Supply -> 0. | Differential | Common_mode -> 1.
    in
    Circuit.add_vsource c ~name:"VDD" ~ac:vdd_ac "vdd" "0" tech.Tech.vdd;
    Circuit.add_vsource c ~name:"VIN" ~ac:vin_ac "vp" "0" conditions.vcm;
    (* DC unity feedback through RFB; CBIG AC-grounds the inverting input —
       except in the common-mode variant, where its far plate is driven so
       both inputs move together *)
    Circuit.add_resistor c ~name:"RFB" "out" "vm" 1e9;
    let cbig_bottom =
      match stimulus with Common_mode -> "vp" | Differential | Supply -> "0"
    in
    Circuit.add_capacitor c ~name:"CBIG" "vm" cbig_bottom 1.;
    Circuit.add_capacitor c ~name:"CL" "out" "0" conditions.load_cap;
    A.add c ~prefix:"x1." ~tech ~params ~inp:"vm" ~inn:"vp" ~out:"out"
      ~vdd:"vdd" ~vss:"0";
    Circuit.nodeset c (Circuit.node c "out") conditions.vcm;
    Circuit.nodeset c (Circuit.node c "vm") conditions.vcm;
    Circuit.nodeset c (Circuit.node c "vdd") tech.Tech.vdd;
    c

  let build ?(conditions = default_conditions) params =
    (build_variant conditions params Differential, "out")

  (* ---------- sessions ----------

     All open-loop testbenches of one amplifier share a single topology
     (same nodes, same device order) whatever the params or conditions, so
     the solver session is compiled once per backend and cached for the
     lifetime of the functor instantiation: every open-loop evaluation,
     nominal or sampled, solves in it.  Compiled sessions are immutable,
     so sharing across domains is safe; the cache itself is a CAS list (a
     lost race costs one extra compile). *)

  (* A session pins one front point: its circuit, the topology's compiled
     sys and where each sample's Newton begins.  A [Warm] session begins
     at its nominal operating point, a [Cold] one at the nodeset guess.
     Two constructors rather than an optional field keep a cold session
     the size it always was. *)
  type session =
    | Cold of { conditions : conditions; circuit : Circuit.t; sys : Mna.sys }
    | Warm of {
        conditions : conditions;
        circuit : Circuit.t;
        sys : Mna.sys;
        start : Yield_numeric.Vec.t;  (* never written: Newton copies it *)
      }

  let sys_cache : (Linsys.backend * Mna.sys) list Atomic.t = Atomic.make []

  let cached_sys backend circuit =
    match List.assoc_opt backend (Atomic.get sys_cache) with
    | Some s -> s
    | None ->
        let s = Mna.sys ~backend circuit in
        let rec publish () =
          let cur = Atomic.get sys_cache in
          match List.assoc_opt backend cur with
          | Some existing -> existing
          | None ->
              if Atomic.compare_and_set sys_cache cur ((backend, s) :: cur)
              then s
              else publish ()
        in
        publish ()

  (* csr samples start at the nominal operating point, solved once here;
     dense samples keep the nodeset start, so dense stays the bit-exact
     reference.  A failed nominal solve leaves the nodeset start. *)
  let session ?(conditions = default_conditions) ?(solver = Linsys.Dense)
      params =
    let circuit, _ = build ~conditions params in
    let sys = cached_sys solver circuit in
    match solver with
    | Linsys.Dense -> Cold { conditions; circuit; sys }
    | Linsys.Csr -> (
        match Dcop.solve ~sys circuit with
        | Ok op -> Warm { conditions; circuit; sys; start = op.Dcop.x }
        | Error _ -> Cold { conditions; circuit; sys })

  let session_circuit (Cold { circuit; _ } | Warm { circuit; _ }) = circuit

  let session_sys (Cold { sys; _ } | Warm { sys; _ }) = sys

  let session_solver_name s = Mna.sys_solver_name (session_sys s)

  (* DC + AC of one open-loop circuit (or of the session circuit under
     per-sample [models], its Newton begun at [start]) in [sys]; [stop]
     ends the sweep early *)
  let open_loop_bode ~sys ?start ?models ?stop conditions circuit =
    match Dcop.solve_with_retry ?start ~sys ?models circuit with
    | Error _ -> None
    | Ok op ->
        Some
          (Ac.transfer_by_name ~sys ?stop circuit op ~out:"out"
             ~freqs:(freqs_of conditions))

  (* every evaluation and session sample: the sweep stops one point past
     the last one perf_of_bode reads *)
  let open_loop_perf ~sys ?start ?models conditions circuit =
    match
      open_loop_bode ~sys ?start ?models ~stop:(sweep_stop ()) conditions
        circuit
    with
    | None -> None
    | Some b -> perf_of_bode conditions b

  let bode_of_circuit ?(conditions = default_conditions) circuit =
    open_loop_bode ~sys:(cached_sys Linsys.Dense circuit) conditions circuit

  let bode ?(conditions = default_conditions) params =
    let circuit, _ = build ~conditions params in
    bode_of_circuit ~conditions circuit

  let evaluate ?(conditions = default_conditions) params =
    let circuit, _ = build ~conditions params in
    open_loop_perf ~sys:(cached_sys Linsys.Dense circuit) conditions circuit

  let sample s models =
    match s with
    | Cold { conditions; circuit; sys } ->
        open_loop_perf ~sys ~models conditions circuit
    | Warm { conditions; circuit; sys; start } ->
        open_loop_perf ~sys ~start ~models conditions circuit

  let evaluate_in_session s ~spec ~rng =
    sample s (Variation.overrides spec rng (session_circuit s))

  let evaluate_sampled ?conditions ~spec ~rng params =
    evaluate_in_session (session ?conditions params) ~spec ~rng

  let evaluate_with_draw ?conditions ~spec ~draw params =
    let s = session ?conditions params in
    let no_mismatch =
      { spec with Variation.mismatch = Variation.zero_spec.Variation.mismatch }
    in
    (* the rng is only consulted for mismatch, which is zeroed *)
    let rng = Yield_stats.Rng.create 0 in
    sample s
      (Variation.overrides_with_draw no_mismatch draw rng (session_circuit s))

  (* the common-mode variant rewires CBIG, so each variant gets its own
     session *)
  let low_freq_gain_db conditions circuit =
    let sys = Mna.sys circuit in
    match Dcop.solve_with_retry ~sys circuit with
    | Error _ -> None
    | Ok op ->
        let freqs = [| conditions.f_lo |] in
        let b = Ac.transfer_by_name ~sys circuit op ~out:"out" ~freqs in
        Some (Measure.dc_gain_db b)

  let cmrr_db ?(conditions = default_conditions) params =
    let adm = low_freq_gain_db conditions (build_variant conditions params Differential) in
    let acm = low_freq_gain_db conditions (build_variant conditions params Common_mode) in
    match (adm, acm) with
    | Some adm, Some acm -> Some (adm -. acm)
    | _ -> None

  let psrr_db ?(conditions = default_conditions) params =
    let adm = low_freq_gain_db conditions (build_variant conditions params Differential) in
    let avdd = low_freq_gain_db conditions (build_variant conditions params Supply) in
    match (adm, avdd) with
    | Some adm, Some avdd -> Some (adm -. avdd)
    | _ -> None

  let input_referred_noise ?(conditions = default_conditions) ?flicker params =
    let circuit, _ = build ~conditions params in
    let sys = cached_sys Linsys.Dense circuit in
    match Dcop.solve_with_retry ~sys circuit with
    | Error _ -> None
    | Ok op -> begin
        let freqs = freqs_of conditions in
        let b = Ac.transfer_by_name ~sys circuit op ~out:"out" ~freqs in
        let out_node = Circuit.node circuit "out" in
        let points =
          Noise.output_noise ?flicker ~sys circuit op ~out:out_node ~freqs
        in
        let input = Noise.input_referred points ~gain:b in
        match Measure.unity_gain_freq b with
        | None -> None
        | Some fu ->
            let in_band =
              Array.of_list
                (List.filter (fun (f, _) -> f <= fu) (Array.to_list input))
            in
            if Array.length in_band < 2 then None
            else Some (input, Noise.integrate_rms in_band)
      end

  let step_response ?(conditions = default_conditions) ?(amplitude = 0.5)
      ?(t_stop = 2e-6) ?(dt = 2e-9) params =
    let c = Circuit.create () in
    let tech = conditions.tech in
    let v_lo = conditions.vcm -. (amplitude /. 2.) in
    let v_hi = conditions.vcm +. (amplitude /. 2.) in
    Circuit.add_vsource c ~name:"VDD" "vdd" "0" tech.Tech.vdd;
    let wave =
      Device.Pulse
        {
          v1 = v_lo;
          v2 = v_hi;
          delay = 0.1 *. t_stop;
          rise = 2. *. dt;
          fall = 2. *. dt;
          width = t_stop;
          period = 0.;
        }
    in
    Circuit.add_vsource c ~name:"VIN" ~wave "vp" "0" v_lo;
    Circuit.add_capacitor c ~name:"CL" "out" "0" conditions.load_cap;
    (* unity-gain follower: output tied straight to the inverting input *)
    A.add c ~prefix:"x1." ~tech ~params ~inp:"out" ~inn:"vp" ~out:"out"
      ~vdd:"vdd" ~vss:"0";
    Circuit.nodeset c (Circuit.node c "out") v_lo;
    match Tran.run (Tran.options ~t_stop ~dt ()) c with
    | Error _ -> None
    | Ok result -> Some (result.Tran.times, Tran.voltage_by_name result c "out")

  let step_perf ?conditions ?amplitude ?t_stop ?dt params =
    match step_response ?conditions ?amplitude ?t_stop ?dt params with
    | None -> None
    | Some (times, values) ->
        let conditions' = Option.value conditions ~default:default_conditions in
        let amplitude' = Option.value amplitude ~default:0.5 in
        let target = conditions'.vcm +. (amplitude' /. 2.) in
        Some
          {
            slew_v_per_us = Measure_tran.slew_rate ~times ~values /. 1e6;
            settling_1pct_s = Measure_tran.settling_time ~times ~values ();
            overshoot_pct = Measure_tran.overshoot_pct ~times ~values;
            final_error_v = Float.abs (Measure_tran.final_value ~values -. target);
          }
end
