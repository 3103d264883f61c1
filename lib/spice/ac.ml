module Linsys = Yield_numeric.Linsys
module Fault = Yield_resilience.Fault
module Metrics = Yield_obs.Metrics

type bode = { freqs : float array; response : Complex.t array }

exception Singular of string

(* [ac.solve] fault: the transfer comes back all-NaN, which every measure
   downstream maps to a failed (not crashed) evaluation *)
let fp_solve = Fault.point "ac.solve"

(* frequencies factored, summed over every transfer *)
let points = Metrics.counter "ac.points"

let never_stop _ _ = false

let transfer ?sys ?(stop = never_stop) circuit op ~out ~freqs =
  if Fault.fire fp_solve then
    { freqs; response = Array.map (fun _ -> Complex.{ re = nan; im = nan }) freqs }
  else begin
    let sys = Mna.default_sys sys circuit in
    (* mirror of the Dcop.solve structural pre-check: a node the AC matrix
       cannot constrain at any frequency makes [G + jwC] singular
       independent of device values, so fail loudly instead of returning
       the gmin-shaped garbage a nearly-singular factorisation would
       produce *)
    (match Mna.sys_ac_issues sys with
    | [] -> ()
    | issue :: _ -> raise (Singular (Topology.issue_to_string issue)));
    let cs = Mna.sys_complex sys in
    let ops name = Dcop.mos_op op name in
    let rhs = Mna.assemble_ac_into cs circuit (Mna.sys_layout sys) ~ops in
    let n = Array.length freqs in
    let response = Array.make n Complex.zero in
    (* the one sweep loop: each frequency is its own factorisation, so
       ending after the point [stop] accepts leaves the swept prefix what
       the full sweep would have computed *)
    let rec sweep k =
      if k = n then n
      else begin
        let omega = 2. *. Float.pi *. freqs.(k) in
        let solve = cs.Linsys.factor ~omega in
        let x = solve rhs in
        let z = if out = Device.ground then Complex.zero else x.(out - 1) in
        response.(k) <- z;
        if stop k z then k + 1 else sweep (k + 1)
      end
    in
    let swept = sweep 0 in
    Metrics.add points swept;
    if swept = n then { freqs; response }
    else { freqs = Array.sub freqs 0 swept; response = Array.sub response 0 swept }
  end

let transfer_by_name ?sys ?stop circuit op ~out ~freqs =
  transfer ?sys ?stop circuit op ~out:(Circuit.node circuit out) ~freqs

let default_freqs ?(per_decade = 10) ~f_lo ~f_hi () =
  if per_decade <= 0 then invalid_arg "Ac.default_freqs: points per decade <= 0";
  if f_lo <= 0. || f_hi <= f_lo then invalid_arg "Ac.default_freqs: bad range";
  let decades = log10 (f_hi /. f_lo) in
  let n = Stdlib.max 2 (1 + int_of_float (Float.ceil (decades *. float_of_int per_decade))) in
  Yield_numeric.Vec.logspace f_lo f_hi n
