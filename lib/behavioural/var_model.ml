module Control = Yield_table.Control
module Table1d = Yield_table.Table1d
module Tbl_io = Yield_table.Tbl_io

type point = {
  gain_db : float;
  pm_deg : float;
  dgain_pct : float;
  dpm_pct : float;
  mc_samples : int;
}

type t = {
  points : point array;
  dgain : Table1d.t;  (* gain -> dgain% *)
  dpm : Table1d.t;  (* pm -> dpm% *)
}

(* Denoised knots for one abscissa/ordinate pair: sort by x, group into
   [bins] equal-population bins, average each bin, then merge knots closer
   than 1e-3 of the x-span — near-coincident knots with Monte Carlo noise on
   y make a cubic spline ring without bound. *)
let knots_of ~bins xs ys =
  let n = Array.length xs in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare xs.(a) xs.(b)) order;
  let groups =
    if n <= bins then Array.map (fun i -> ([ i ], 1)) order
    else
      Array.init bins (fun b ->
          let lo = b * n / bins and hi = ((b + 1) * n / bins) - 1 in
          let members = ref [] in
          for i = hi downto lo do
            members := order.(i) :: !members
          done;
          (!members, hi - lo + 1))
  in
  let centre (members, count) =
    let sx = List.fold_left (fun acc i -> acc +. xs.(i)) 0. members in
    let sy = List.fold_left (fun acc i -> acc +. ys.(i)) 0. members in
    (sx /. float_of_int count, sy /. float_of_int count, count)
  in
  let raw = Array.map centre groups in
  let x_lo, _, _ = raw.(0) and x_hi, _, _ = raw.(Array.length raw - 1) in
  let min_step = 1e-3 *. Float.max 1e-30 (x_hi -. x_lo) in
  (* merge runs of knots closer than the minimum step, pooling their data *)
  let merged = ref [] in
  Array.iter
    (fun (x, y, c) ->
      match !merged with
      | (x0, y0, c0) :: rest when x -. x0 < min_step ->
          let total = float_of_int (c0 + c) in
          let fc0 = float_of_int c0 and fc = float_of_int c in
          merged :=
            ( ((x0 *. fc0) +. (x *. fc)) /. total,
              ((y0 *. fc0) +. (y *. fc)) /. total,
              c0 + c )
            :: rest
      | _ -> merged := (x, y, c) :: !merged)
    raw;
  List.rev_map (fun (x, y, _) -> (x, y)) !merged |> Array.of_list

let create ?(control = "3E") ?(bins = 24) points =
  if Array.length points < 2 then
    invalid_arg "Var_model.create: need at least two points";
  let axis =
    match Control.parse control with
    | a :: _ -> a
    | [] -> Control.default_axis
  in
  let sorted = Array.copy points in
  Array.sort (fun a b -> Float.compare a.gain_db b.gain_db) sorted;
  let gains = Array.map (fun p -> p.gain_db) sorted in
  let pms = Array.map (fun p -> p.pm_deg) sorted in
  let dgains = Array.map (fun p -> p.dgain_pct) sorted in
  let dpms = Array.map (fun p -> p.dpm_pct) sorted in
  let gain_knots = knots_of ~bins gains dgains in
  let pm_knots = knots_of ~bins pms dpms in
  let table knots =
    if Array.length knots < 2 then
      (* a front collapsed to (numerically) one abscissa: fall back to a
         flat two-knot table at the pooled mean *)
      let x, y = knots.(0) in
      Table1d.create ~control:axis [| x -. 0.5; x +. 0.5 |] [| y; y |]
    else Table1d.of_unsorted ~control:axis knots
  in
  { points = sorted; dgain = table gain_knots; dpm = table pm_knots }

let points t = Array.copy t.points

let gain_domain t = Table1d.domain t.dgain

let pm_domain t = Table1d.domain t.dpm

let dgain_at t ~gain_db = Float.max 0. (Table1d.eval t.dgain gain_db)

let dpm_at t ~pm_deg = Float.max 0. (Table1d.eval t.dpm pm_deg)

let to_table t =
  Tbl_io.create
    ~columns:[| "gain"; "pm"; "dgain_pct"; "dpm_pct"; "mc_samples" |]
    ~rows:
      (Array.map
         (fun p ->
           [|
             p.gain_db;
             p.pm_deg;
             p.dgain_pct;
             p.dpm_pct;
             float_of_int p.mc_samples;
           |])
         t.points)

let of_table ?control table =
  let gain = Tbl_io.column table "gain" in
  let pm = Tbl_io.column table "pm" in
  let dgain = Tbl_io.column table "dgain_pct" in
  let dpm = Tbl_io.column table "dpm_pct" in
  let samples = Tbl_io.column table "mc_samples" in
  create ?control
    (Array.init (Array.length gain) (fun i ->
         {
           gain_db = gain.(i);
           pm_deg = pm.(i);
           dgain_pct = dgain.(i);
           dpm_pct = dpm.(i);
           mc_samples = int_of_float samples.(i);
         }))
