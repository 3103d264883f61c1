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

(* The one extraction: gain, phase margin, unity-gain and -3 dB
   frequencies and the ro estimate of the first [n] points of a sweep of
   [freqs], read in place from [r], whose magnitudes are already written.
   Measure.unity_gain_freq, phase_margin_deg and f3db in one pass: the
   magnitudes and the unwrapped phase are computed once and measured with
   the same Measure primitives, so the result is bit-identical to
   theirs. *)
let extract conditions ~freqs (r : Mna.response) n =
  if n = 0 then invalid_arg "Testbench.perf_of_bode: empty sweep";
  let mags = r.Mna.mag_db in
  let gain_db = mags.(0) in
  match Measure.crossing ~n ~xs:freqs ~ys:mags ~level:0. () with
  | Some fu when Float.is_finite gain_db ->
      Measure.set_phases_deg_unwrapped r n;
      let pm =
        180. +. Measure.interp_at ~n ~xs:freqs ~ys:r.Mna.phase_deg fu ~log_x:true
      in
      let f3db =
        Option.value
          (Measure.crossing ~n ~xs:freqs ~ys:mags ~level:(gain_db -. 3.) ())
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

let perf_of_bode conditions (b : Ac.bode) =
  let n = Array.length b.Ac.response in
  let r = Mna.response n in
  Array.iteri
    (fun k (z : Complex.t) ->
      r.Mna.re.(k) <- z.re;
      r.Mna.im.(k) <- z.im;
      Measure.set_magnitude_db r k)
    b.Ac.response;
  extract conditions ~freqs:b.Ac.freqs r n

(* The prefix [extract] reads: point 0, the first 0 dB crossing pair
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
   (k, k+1), which needs k+1.  Each magnitude is computed here, once, into
   the response the extraction reads.  The first index of each pair seen
   so far (-1 before) is kept in the response's marks, 0 for the 0 dB
   pair and 1 for the -3 dB one, so the rule is one closed function. *)
let sweep_stop (r : Mna.response) k =
  Measure.set_magnitude_db r k;
  let mags = r.Mna.mag_db and marks = r.Mna.marks in
  let m = mags.(k) in
  if k = 0 then begin
    marks.(0) <- -1;
    marks.(1) <- -1;
    if Float.is_finite m then 2 else 0
  end
  else begin
    let prev = mags.(k - 1) and level = mags.(0) -. 3. in
    if marks.(0) < 0 && prev >= 0. && m < 0. then marks.(0) <- k - 1;
    if marks.(1) < 0 && prev >= level && m < level then marks.(1) <- k - 1;
    if marks.(0) < 0 then 2
    else if marks.(1) < 0 then 1
    else Stdlib.max 0 (marks.(0) + 2 - k)
  end

let feasible conditions p =
  p.phase_margin_deg > 0. && p.unity_gain_hz >= conditions.min_unity_gain_hz

let objectives p = [| p.gain_db; p.phase_margin_deg |]

(* the value under [key] ([compare], as List.assoc, so a NaN key finds
   itself), without the option List.assoc_opt would allocate *)
let rec find key = function
  | [] -> raise_notrace Not_found
  | (k, v) :: rest -> if compare k key = 0 then v else find key rest

(* [v] under [key] in the compare-and-set list [cache], unless a racing
   domain published one first: the published value either way *)
let rec publish cache key v =
  let cur = Atomic.get cache in
  match find key cur with
  | existing -> existing
  | exception Not_found ->
      if Atomic.compare_and_set cache cur ((key, v) :: cur) then v
      else publish cache key v

let cached cache key make x =
  match find key (Atomic.get cache) with
  | v -> v
  | exception Not_found -> publish cache key (make key x)

(* one grid per distinct (f_lo, f_hi, points_per_decade): every
   evaluation under one set of conditions sweeps the same array, which
   nothing writes *)
let grids : ((float * float * int) * float array) list Atomic.t = Atomic.make []

let freqs_of c =
  cached grids (c.f_lo, c.f_hi, c.points_per_decade)
    (fun (f_lo, f_hi, per_decade) () ->
      Ac.default_freqs ~per_decade ~f_lo ~f_hi ())
    ()

module type S = sig
  type params

  val build : ?conditions:conditions -> params -> Circuit.t * string

  val bode_of_circuit : ?conditions:conditions -> Circuit.t -> Ac.bode option

  val bode : ?conditions:conditions -> params -> Ac.bode option

  val evaluate : ?conditions:conditions -> params -> perf option

  type session

  val session :
    ?conditions:conditions -> ?solver:Linsys.backend -> params -> session

  val session_circuit : session -> Circuit.t

  val session_sys : session -> Mna.sys

  val session_solver_name : session -> string

  val evaluate_in_session :
    session -> spec:Variation.spec -> rng:Yield_stats.Rng.t -> perf option

  val evaluate_with_draw :
    session -> spec:Variation.spec -> draw:Variation.global_draw -> perf option

  val cmrr_db : ?conditions:conditions -> params -> float option

  val psrr_db : ?conditions:conditions -> params -> float option

  val input_referred_noise :
    ?conditions:conditions -> ?flicker:Noise.flicker -> params ->
    ((float * float) array * float) option

  val step_response :
    ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
    params -> (float array * float array) option

  val step_perf :
    ?conditions:conditions -> ?amplitude:float -> ?t_stop:float -> ?dt:float ->
    params -> step_perf option
end

module Make (A : Amplifier.S) = struct
  type params = A.params

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

  (* ---------- sessions and the template ----------

     All open-loop testbenches of one amplifier and one stimulus share a
     single topology (same nodes, same device order) whatever the params
     or conditions, so the solver session is compiled once per backend
     and cached for the lifetime of the functor instantiation: every
     open-loop evaluation, nominal or sampled, solves in it.  Each CMRR
     and PSRR stimulus has its own dense session, cached the same way.
     Compiled sessions are shared across domains (a dense one grows its
     sweep's pivot-path plan by compare-and-set); the caches themselves
     are CAS lists (a lost race costs one extra compile). *)

  let sys_cache : (Linsys.backend * Mna.sys) list Atomic.t = Atomic.make []

  let cached_sys backend circuit =
    cached sys_cache backend (fun backend c -> Mna.sys ~backend c) circuit

  (* the dense sessions of the CMRR and PSRR variants, one per stimulus *)
  let variant_cache : (stimulus * Mna.sys) list Atomic.t = Atomic.make []

  (* device [di]'s W and L at [2 di] and [2 di + 1], 0 for a device that
     is not a MOSFET *)
  let geometry_of devices =
    let g = Array.make (2 * Array.length devices) 0. in
    Array.iteri
      (fun di dev ->
        match dev with
        | Device.Mosfet { w; l; _ } ->
            g.(2 * di) <- w;
            g.(2 * di + 1) <- l
        | Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
        | Device.Isource _ | Device.Vccs _ ->
            ())
      devices;
    g

  (* everything of a circuit but its MOSFETs' sizes *)
  let unsized circuit =
    ( Array.map
        (function
          | Device.Mosfet m -> Device.Mosfet { m with w = 0.; l = 0. }
          | ( Device.Resistor _ | Device.Capacitor _ | Device.Vsource _
            | Device.Isource _ | Device.Vccs _ ) as dev ->
              dev)
        (Circuit.devices circuit),
      Circuit.nodesets circuit )

  (* The testbench built at the default design, and which design
     parameter each of its MOSFETs' W and L is, read off [A.add] by
     building it once more with each parameter moved alone.  An entry
     that moves with parameter [k] must be that parameter's value, in
     both builds; one that moves with none is fixed (-1).  A topology
     whose parameters move anything else, or size a device any other
     way, is refused here, before any evaluation. *)
  let sizing conditions =
    let refuse what = invalid_arg ("Testbench: " ^ A.name ^ " " ^ what) in
    let base = A.params_to_array A.default_params in
    let template = build_variant conditions A.default_params Differential in
    let own = geometry_of (Circuit.devices template) in
    let sized_by = Array.make (Array.length own) (-1) in
    Array.iteri
      (fun k v ->
        let moved = Array.copy base in
        moved.(k) <- v *. 1.5;
        let c = build_variant conditions (A.params_of_array moved) Differential in
        if compare (unsized c) (unsized template) <> 0 then
          refuse ("changes more than MOSFET sizes with " ^ A.param_names.(k));
        Array.iteri
          (fun j x ->
            if x <> own.(j) then
              if x = moved.(k) && own.(j) = v && sized_by.(j) < 0 then sized_by.(j) <- k
              else refuse (Printf.sprintf "sizes device %d by no single design parameter" (j / 2)))
          (geometry_of (Circuit.devices c)))
      base;
    (template, sized_by)

  (* One open-loop testbench per set of conditions, built once at the
     default design and shared, read-only, by every domain: its circuit
     and dense sys, the output node, the sweep grid and its extraction,
     and the design parameter each MOSFET's W and L is ([sizing]).  An
     evaluation passes its design vector to the assembly ({!Mna.sizes})
     instead of rebuilding the circuit. *)
  type template = {
    circuit : Circuit.t;
    sys : Mna.sys;
    out : Device.node;
    freqs : float array;
    extract_perf : Mna.response -> int -> perf option;
    sized_by : int array;
  }

  let templates : (conditions * template) list Atomic.t = Atomic.make []

  let make_template conditions () =
    (* [sizing] read its devices, so their array is cached before the
       template is shared *)
    let circuit, sized_by = sizing conditions in
    let freqs = freqs_of conditions in
    {
      circuit;
      sys = cached_sys Linsys.Dense circuit;
      out = Circuit.node circuit "out";
      freqs;
      extract_perf = extract conditions ~freqs;
      sized_by;
    }

  (* [make_template] is named, not a lambda here: inside the functor a
     lambda would close over its values, one closure per lookup *)
  let template conditions = cached templates conditions make_template ()

  (* A session pins one front point: its circuit, the topology's compiled
     sys and where each sample's Newton begins.  A [Warm] session begins
     at its nominal operating point, a [Cold] one at the nodeset guess.
     Two constructors rather than an optional field keep a cold session
     the size it always was.  Its template gives the output, grid and
     extraction. *)
  type session =
    | Cold of { t : template; circuit : Circuit.t; sys : Mna.sys }
    | Warm of {
        t : template;
        circuit : Circuit.t;
        sys : Mna.sys;
        start : Yield_numeric.Vec.t;  (* never written: Newton copies it *)
      }

  (* csr samples start at the nominal operating point, solved once here;
     dense samples keep the nodeset start, so dense stays the bit-exact
     reference.  A failed nominal solve leaves the nodeset start. *)
  let session ?(conditions = default_conditions) ?(solver = Linsys.Dense)
      params =
    let t = template conditions in
    let circuit, _ = build ~conditions params in
    let sys = cached_sys solver circuit in
    match solver with
    | Linsys.Dense -> Cold { t; circuit; sys }
    | Linsys.Csr -> (
        match Dcop.solve ~sys circuit with
        | Ok op -> Warm { t; circuit; sys; start = op.Dcop.x }
        | Error _ -> Cold { t; circuit; sys })

  let session_circuit (Cold { circuit; _ } | Warm { circuit; _ }) = circuit

  let session_sys (Cold { sys; _ } | Warm { sys; _ }) = sys

  let session_solver_name s = Mna.sys_solver_name (session_sys s)

  (* DC + the full AC sweep of one open-loop circuit in [sys] *)
  let open_loop_bode ~sys conditions circuit =
    match Dcop.solve_with_retry ~sys circuit with
    | Error _ -> None
    | Ok op ->
        Some
          (Ac.transfer_by_name ~sys circuit op ~out:"out"
             ~freqs:(freqs_of conditions))

  (* every evaluation and session sample: DC, the sweep from the DC
     workspace's solution, stopped one point past the last one the
     extraction reads, and the extraction, all in the borrowed
     workspaces *)
  let open_loop_perf t ~sys ?start ?models ?sizes circuit =
    match
      Dcop.with_solution ?start ~sys ?models ?sizes circuit (fun x _ ->
          Ac.sweep ~sys ~stop:sweep_stop circuit
            (Mna.Solution { models; sizes; x })
            ~out:t.out ~freqs:t.freqs t.extract_perf)
    with
    | Ok perf -> perf
    | Error _ -> None

  let bode_of_circuit ?(conditions = default_conditions) circuit =
    open_loop_bode ~sys:(cached_sys Linsys.Dense circuit) conditions circuit

  let bode ?(conditions = default_conditions) params =
    let circuit, _ = build ~conditions params in
    bode_of_circuit ~conditions circuit

  (* the template, sized for [params] at assembly *)
  let evaluate ?(conditions = default_conditions) params =
    let t = template conditions in
    open_loop_perf t ~sys:t.sys
      ~sizes:{ Mna.design = A.params_to_array params; at = t.sized_by }
      t.circuit

  let sample s models =
    match s with
    | Cold { t; circuit; sys } -> open_loop_perf t ~sys ~models circuit
    | Warm { t; circuit; sys; start } ->
        open_loop_perf t ~sys ~start ~models circuit

  let evaluate_in_session s ~spec ~rng =
    sample s (Variation.overrides spec rng (session_circuit s))

  let evaluate_with_draw s ~spec ~draw =
    let no_mismatch =
      { spec with Variation.mismatch = Variation.zero_spec.Variation.mismatch }
    in
    (* the rng is only consulted for mismatch, which is zeroed *)
    let rng = Yield_stats.Rng.create 0 in
    sample s
      (Variation.overrides_with_draw no_mismatch draw rng (session_circuit s))

  (* the common-mode variant rewires CBIG, so each stimulus gets its own
     session *)
  let low_freq_gain_db conditions params stimulus =
    let circuit = build_variant conditions params stimulus in
    let sys =
      cached variant_cache stimulus (fun _ circuit -> Mna.sys circuit) circuit
    in
    match Dcop.solve_with_retry ~sys circuit with
    | Error _ -> None
    | Ok op ->
        let freqs = [| conditions.f_lo |] in
        let b = Ac.transfer_by_name ~sys circuit op ~out:"out" ~freqs in
        Some (Measure.dc_gain_db b)

  (* the differential gain over the gain under [stimulus] *)
  let rejection_db conditions params stimulus =
    let adm = low_freq_gain_db conditions params Differential in
    let a = low_freq_gain_db conditions params stimulus in
    match (adm, a) with Some adm, Some a -> Some (adm -. a) | _ -> None

  let cmrr_db ?(conditions = default_conditions) params =
    rejection_db conditions params Common_mode

  let psrr_db ?(conditions = default_conditions) params =
    rejection_db conditions params Supply

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

  let step_perf ?(conditions = default_conditions) ?(amplitude = 0.5) ?t_stop
      ?dt params =
    (* a zero step has no response to measure: the measurements would
       read the output's own residual drift *)
    if amplitude = 0. || not (Float.is_finite amplitude) then
      invalid_arg "Testbench.step_perf: the amplitude must be finite and non-zero";
    match step_response ~conditions ~amplitude ?t_stop ?dt params with
    | None -> None
    | Some (times, values) ->
        let target = conditions.vcm +. (amplitude /. 2.) in
        Some
          {
            slew_v_per_us = Measure_tran.slew_rate ~times ~values /. 1e6;
            settling_1pct_s = Measure_tran.settling_time ~times ~values ();
            overshoot_pct = Measure_tran.overshoot_pct ~times ~values;
            final_error_v = Float.abs (Measure_tran.final_value ~values -. target);
          }
end
