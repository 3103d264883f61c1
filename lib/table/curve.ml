type t = {
  points : float array array;  (* n x k, normalised coordinates *)
  arcs : float array;  (* cumulative arc length, strictly increasing *)
  lo : float array;  (* per-dimension normalisation *)
  span : float array;
  tables : (string * Table1d.t) list;  (* column splines over arc length *)
}

let normalise lo span q =
  Array.mapi (fun j x -> (x -. lo.(j)) /. span.(j)) q

let distance2 a b =
  let acc = ref 0. in
  Array.iteri
    (fun j x ->
      let d = x -. b.(j) in
      acc := !acc +. (d *. d))
    a;
  !acc

(* consecutive knots closer than this share of the total arc length are
   decimated *)
let min_spacing = 1e-3

let create ?(control = Control.default_axis) ~inputs ~columns () =
  let n = Array.length inputs in
  if n < 2 then invalid_arg "Curve.create: need at least two points";
  let k = Array.length inputs.(0) in
  if k = 0 then invalid_arg "Curve.create: zero-dimensional points";
  Array.iter
    (fun row ->
      if Array.length row <> k then invalid_arg "Curve.create: ragged inputs")
    inputs;
  List.iter
    (fun (name, col) ->
      if Array.length col <> n then
        invalid_arg ("Curve.create: column length mismatch for " ^ name))
    columns;
  (* per-dimension normalisation so arc length weights dimensions equally *)
  let lo = Array.make k infinity and hi = Array.make k neg_infinity in
  Array.iter
    (fun row ->
      Array.iteri
        (fun j x ->
          lo.(j) <- Float.min lo.(j) x;
          hi.(j) <- Float.max hi.(j) x)
        row)
    inputs;
  let span = Array.init k (fun j -> if hi.(j) > lo.(j) then hi.(j) -. lo.(j) else 1.) in
  let normed = Array.map (normalise lo span) inputs in
  (* merge consecutive duplicates, keeping the first occurrence *)
  let keep = Array.make n true in
  for i = 1 to n - 1 do
    if distance2 normed.(i) normed.(i - 1) < 1e-24 then keep.(i) <- false
  done;
  let indices =
    Array.to_list (Array.init n Fun.id) |> List.filter (fun i -> keep.(i))
  in
  if List.length indices < 2 then
    invalid_arg "Curve.create: fewer than two distinct points";
  (* decimate near-coincident knots: total arc first, then enforce a
     minimum relative spacing (keeping the end points) *)
  let total_arc idxs =
    let rec walk acc = function
      | i :: (j :: _ as rest) ->
          walk (acc +. sqrt (distance2 normed.(i) normed.(j))) rest
      | [ _ ] | [] -> acc
    in
    walk 0. idxs
  in
  let total = total_arc indices in
  let min_step = min_spacing *. total in
  let indices =
    match indices with
    | [] -> []
    | first :: rest ->
        let last = List.nth indices (List.length indices - 1) in
        let _, selected =
          List.fold_left
            (fun (kept, acc) i ->
              let step = sqrt (distance2 normed.(i) normed.(kept)) in
              if i = last || step >= min_step then (i, i :: acc)
              else (kept, acc))
            (first, [ first ]) rest
        in
        List.rev selected
  in
  let indices =
    (* decimation may leave the final point too close to its predecessor;
       drop the predecessor rather than the end point *)
    match List.rev indices with
    | last :: prev :: rest
      when sqrt (distance2 normed.(last) normed.(prev)) < 1e-12 ->
        List.rev (last :: rest)
    | _ -> indices
  in
  if List.length indices < 2 then
    invalid_arg "Curve.create: fewer than two distinct points";
  let points = Array.of_list (List.map (fun i -> normed.(i)) indices) in
  let m = Array.length points in
  let arcs = Array.make m 0. in
  for i = 1 to m - 1 do
    arcs.(i) <- arcs.(i - 1) +. sqrt (distance2 points.(i) points.(i - 1))
  done;
  let tables =
    List.map
      (fun (name, col) ->
        let ys = Array.of_list (List.map (fun i -> col.(i)) indices) in
        (name, Table1d.create ~control arcs ys))
      columns
  in
  { points; arcs; lo; span; tables }

let dimension t = Array.length t.lo

let knot_arcs t = Array.copy t.arcs

let bracket t arc =
  let n = Array.length t.arcs in
  if arc <= t.arcs.(0) then (0, 1, 0.)
  else if arc >= t.arcs.(n - 1) then (n - 2, n - 1, 1.)
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if t.arcs.(mid) <= arc then lo := mid else hi := mid
    done;
    let span = t.arcs.(!hi) -. t.arcs.(!lo) in
    let u = if span <= 0. then 0. else (arc -. t.arcs.(!lo)) /. span in
    (!lo, !hi, Float.max 0. (Float.min 1. u))
  end

(* closest point on segment [a, b] to q; returns (param in [0,1], dist2) *)
let project_segment a b q =
  let k = Array.length a in
  let num = ref 0. and den = ref 0. in
  for j = 0 to k - 1 do
    let d = b.(j) -. a.(j) in
    num := !num +. (d *. (q.(j) -. a.(j)));
    den := !den +. (d *. d)
  done;
  let tparam = if !den <= 0. then 0. else Float.max 0. (Float.min 1. (!num /. !den)) in
  let acc = ref 0. in
  for j = 0 to k - 1 do
    let p = a.(j) +. (tparam *. (b.(j) -. a.(j))) in
    let d = q.(j) -. p in
    acc := !acc +. (d *. d)
  done;
  (tparam, !acc)

let project t q =
  if Array.length q <> dimension t then invalid_arg "Curve.project: arity mismatch";
  let qn = normalise t.lo t.span q in
  let best_arc = ref 0. and best_d2 = ref infinity in
  for i = 0 to Array.length t.points - 2 do
    let tparam, d2 = project_segment t.points.(i) t.points.(i + 1) qn in
    if d2 < !best_d2 then begin
      best_d2 := d2;
      best_arc := t.arcs.(i) +. (tparam *. (t.arcs.(i + 1) -. t.arcs.(i)))
    end
  done;
  (!best_arc, sqrt !best_d2)

let eval_at_arc t name arc =
  match List.assoc_opt name t.tables with
  | Some table -> Table1d.eval table arc
  | None -> raise Not_found

let eval t name q =
  let arc, _ = project t q in
  eval_at_arc t name arc
