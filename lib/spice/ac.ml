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

(* of those, the frequencies the sweep handed the solver two at a time *)
let paired = Metrics.counter "ac.paired"

(* of those, the frequencies a dense sweep factored by the generic
   elimination because its pivot-path plan could not carry them *)
let dense_generic = Metrics.counter "ac.dense_generic"

let never_stop _ _ = max_int

(* The one sweep loop over the [n] points of a grid: [point k k'] writes
   the response of point [k], and of [k'] too unless it is -1, into [r]
   and returns how many of them left the backend's compiled elimination;
   [stop r k] is consulted after each point.  Points before [k] are swept
   and the rule needs every point up to [last]; [pairs] frequencies went
   two at a time.  Each frequency is its own factorisation, so the swept
   prefix is what the full sweep would have computed, and two promised
   points can be factored together.  Returns the swept count; the
   counters hear of a sweep only when it [counted].  Top-level functions
   of their arguments, so the loop allocates no closure. *)

(* the last point the rule needs once it has seen point [k]; it may not
   fall short of [promised], the last point it needed before *)
let consult stop (r : Mna.response) n k promised =
  let need = stop r k in
  let last = if need >= n - 1 - k then n - 1 else k + need in
  if last < promised then
    invalid_arg "Ac.transfer: the stop rule gave up a point it had promised";
  last

let rec sweep_from stop counted r point n k last pairs generic =
  if k > last then begin
    if counted then begin
      Metrics.add points k;
      Metrics.add paired pairs;
      Metrics.add dense_generic generic
    end;
    k
  end
  else if k < last then begin
    let g = point k (k + 1) in
    let last = consult stop r n k last in
    sweep_from stop counted r point n (k + 2)
      (consult stop r n (k + 1) last)
      (pairs + 2) (generic + g)
  end
  else begin
    let g = point k (-1) in
    sweep_from stop counted r point n (k + 1) (consult stop r n k last) pairs
      (generic + g)
  end

let sweep_points ~stop ~counted r point n =
  if n = 0 then 0 else sweep_from stop counted r point n 0 0 0 0

(* what a faulted sweep answers at every point: NaN, nothing factored *)
let nan_point (r : Mna.response) k k' =
  r.Mna.re.(k) <- nan;
  r.Mna.im.(k) <- nan;
  if k' >= 0 then begin
    r.Mna.re.(k') <- nan;
    r.Mna.im.(k') <- nan
  end;
  0

(* the sweep in the borrowed workspace [w], and [k] of its response *)
let sweep_in (w : Mna.ac_work) ~faulted ~stop circuit layout src ~out ~freqs k
    =
  let r = w.Mna.points and n = Array.length freqs in
  Mna.reserve r n;
  let swept =
    if faulted then sweep_points ~stop ~counted:false r (nan_point r) n
    else begin
      Mna.assemble_ac w circuit layout src;
      (* the ground's unknown is -1: factored, never solved, answered
         zero *)
      let point =
        w.Mna.cs.Linsys.sweep w.Mna.crhs ~freqs ~out:(out - 1) ~re:r.Mna.re
          ~im:r.Mna.im
      in
      sweep_points ~stop ~counted:true r point n
    end
  in
  k r swept

let sweep ?sys ?(stop = never_stop) circuit src ~out ~freqs k =
  let faulted = Fault.fire fp_solve in
  let sys = Mna.default_sys sys circuit in
  (* mirror of the Dcop.solve structural pre-check: a node the AC matrix
     cannot constrain at any frequency makes [G + jwC] singular
     independent of device values, so fail loudly instead of returning
     the gmin-shaped garbage a nearly-singular factorisation would
     produce *)
  (if not faulted then
     match Mna.sys_ac_issues sys with
     | [] -> ()
     | issue :: _ -> raise (Singular (Topology.issue_to_string issue)));
  (* the compiled session is shared across domains; the pencil, its
     elimination buffers and the response are borrowed from it for the
     call, without a closure *)
  let w = Mna.borrow_ac sys in
  match
    sweep_in w ~faulted ~stop circuit (Mna.sys_layout sys) src ~out ~freqs k
  with
  | v ->
      Mna.return_ac w;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Mna.return_ac w;
      Printexc.raise_with_backtrace e bt

let transfer ?sys ?stop circuit op ~out ~freqs =
  sweep ?sys ?stop circuit
    (Mna.Operating_points (Dcop.mos_op op))
    ~out ~freqs
    (fun r swept ->
      {
        freqs = (if swept = Array.length freqs then freqs else Array.sub freqs 0 swept);
        response =
          Array.init swept (fun k -> { Complex.re = r.Mna.re.(k); im = r.Mna.im.(k) });
      })

let transfer_by_name ?sys ?stop circuit op ~out ~freqs =
  transfer ?sys ?stop circuit op ~out:(Circuit.node circuit out) ~freqs

let default_freqs ?(per_decade = 10) ~f_lo ~f_hi () =
  if per_decade <= 0 then invalid_arg "Ac.default_freqs: points per decade <= 0";
  if f_lo <= 0. || f_hi <= f_lo then invalid_arg "Ac.default_freqs: bad range";
  let decades = log10 (f_hi /. f_lo) in
  let n = Stdlib.max 2 (1 + int_of_float (Float.ceil (decades *. float_of_int per_decade))) in
  Yield_numeric.Vec.logspace f_lo f_hi n
