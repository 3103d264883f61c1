(* Complex matrices are stored as two flat row-major float arrays (re, im):
   cheaper than an array of boxed Complex.t records. *)

type t = { rows : int; cols : int; re : float array; im : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Cmat.create: negative dimension";
  let n = rows * cols in
  { rows; cols; re = Array.make n 0.; im = Array.make n 0. }

let rows m = m.rows

let cols m = m.cols

let idx m i j = (i * m.cols) + j

let get m i j =
  let k = idx m i j in
  { Complex.re = m.re.(k); im = m.im.(k) }

let set m i j (z : Complex.t) =
  let k = idx m i j in
  m.re.(k) <- z.re;
  m.im.(k) <- z.im

let of_real ?(imag_scale = 1.) (g : Mat.t) (c : Mat.t) =
  if g.rows <> c.rows || g.cols <> c.cols then
    invalid_arg "Cmat.of_real: shape mismatch";
  let m = create g.rows g.cols in
  for k = 0 to Array.length m.re - 1 do
    m.re.(k) <- g.data.(k);
    m.im.(k) <- imag_scale *. c.data.(k)
  done;
  m

let mul_vec m v =
  if m.cols <> Array.length v then invalid_arg "Cmat.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let re = ref 0. and im = ref 0. in
      for j = 0 to m.cols - 1 do
        let k = idx m i j in
        let vr = v.(j).Complex.re and vi = v.(j).Complex.im in
        re := !re +. (m.re.(k) *. vr) -. (m.im.(k) *. vi);
        im := !im +. (m.re.(k) *. vi) +. (m.im.(k) *. vr)
      done;
      { Complex.re = !re; im = !im })

let[@inline] mag2 re im p = (re.(p) *. re.(p)) +. (im.(p) *. im.(p))

type work = {
  re : float array;
  im : float array;
  xr : float array;
  xi : float array;
  nz : int array;
}

let work n =
  if n < 0 then invalid_arg "Cmat.work: negative dimension";
  {
    re = Array.make (n * n) 0.;
    im = Array.make (n * n) 0.;
    xr = Array.make n 0.;
    xi = Array.make n 0.;
    nz = Array.make n 0;
  }

let sibling w =
  let n = Array.length w.xr in
  {
    re = Array.make (n * n) 0.;
    im = Array.make (n * n) 0.;
    xr = Array.make n 0.;
    xi = Array.make n 0.;
    nz = w.nz;
  }

(* Gaussian elimination with partial pivoting of [w]'s working copy in
   place, steps [from] .. n - 1, eliminating into the right-hand side
   [w.xr]/[w.xi] as it goes (single-RHS forward pass).  Entry (i, j) is
   re/im.(i*n + j).  [skip_zeros]: see Lu.factor_into; the same argument
   holds per real and imaginary part. *)
let eliminate w ~skip_zeros ~from =
  let re = w.re and im = w.im and xr = w.xr and xi = w.xi and nz = w.nz in
  let n = Array.length xr in
  if from < 0 then invalid_arg "Cmat.eliminate: negative step";
  for k = from to n - 1 do
    let rk = k * n in
    let best = ref k and best_mag = ref (mag2 re im (rk + k)) in
    for i = k + 1 to n - 1 do
      let mag = mag2 re im ((i * n) + k) in
      if mag > !best_mag then begin
        best := i;
        best_mag := mag
      end
    done;
    if !best_mag < 1e-280 then raise (Lu.Singular k);
    if !best <> k then begin
      let rb = !best * n in
      for j = 0 to n - 1 do
        let tr = re.(rk + j) and ti = im.(rk + j) in
        re.(rk + j) <- re.(rb + j);
        im.(rk + j) <- im.(rb + j);
        re.(rb + j) <- tr;
        im.(rb + j) <- ti
      done;
      let tr = xr.(k) and ti = xi.(k) in
      xr.(k) <- xr.(!best);
      xi.(k) <- xi.(!best);
      xr.(!best) <- tr;
      xi.(!best) <- ti
    end;
    let pr = re.(rk + k) and pi = im.(rk + k) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    let nnz = ref 0 in
    for j = k + 1 to n - 1 do
      if (not skip_zeros) || re.(rk + j) <> 0. || im.(rk + j) <> 0. then begin
        nz.(!nnz) <- j;
        incr nnz
      end
    done;
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let ar = re.(ri + k) and ai = im.(ri + k) in
      if ar <> 0. || ai <> 0. then begin
        (* factor = a / pivot *)
        let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
        let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
        re.(ri + k) <- 0.;
        im.(ri + k) <- 0.;
        if Float.is_finite fr && Float.is_finite fi then
          for t = 0 to !nnz - 1 do
            let j = nz.(t) in
            let ur = re.(rk + j) and ui = im.(rk + j) in
            re.(ri + j) <- re.(ri + j) -. ((fr *. ur) -. (fi *. ui));
            im.(ri + j) <- im.(ri + j) -. ((fr *. ui) +. (fi *. ur))
          done
        else
          for j = k + 1 to n - 1 do
            let ur = re.(rk + j) and ui = im.(rk + j) in
            re.(ri + j) <- re.(ri + j) -. ((fr *. ur) -. (fi *. ui));
            im.(ri + j) <- im.(ri + j) -. ((fr *. ui) +. (fi *. ur))
          done;
        xr.(i) <- xr.(i) -. ((fr *. xr.(k)) -. (fi *. xi.(k)));
        xi.(i) <- xi.(i) -. ((fr *. xi.(k)) +. (fi *. xr.(k)))
      end
    done
  done

(* back substitution of the eliminated system, rows n - 1 down to [lo]:
   entries [lo] .. n - 1 of the solution land in [w.xr]/[w.xi] *)
let back_substitute w lo =
  let re = w.re and im = w.im and xr = w.xr and xi = w.xi in
  let n = Array.length xr in
  for i = n - 1 downto lo do
    let ri = i * n in
    let sr = ref xr.(i) and si = ref xi.(i) in
    for j = i + 1 to n - 1 do
      sr := !sr -. ((re.(ri + j) *. xr.(j)) -. (im.(ri + j) *. xi.(j)));
      si := !si -. ((re.(ri + j) *. xi.(j)) +. (im.(ri + j) *. xr.(j)))
    done;
    let pr = re.(ri + i) and pi = im.(ri + i) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    xr.(i) <- ((!sr *. pr) +. (!si *. pi)) /. pmag;
    xi.(i) <- ((!si *. pr) -. (!sr *. pi)) /. pmag
  done

let entry_into w k ~re ~im j =
  if k >= Array.length w.xr then invalid_arg "Cmat.entry_into: entry outside the system";
  if k < 0 then begin
    re.(j) <- 0.;
    im.(j) <- 0.
  end
  else begin
    back_substitute w k;
    re.(j) <- w.xr.(k);
    im.(j) <- w.xi.(k)
  end

(* [m0] into the workspace's matrix, after the checks both solves share *)
let load w m0 rhs_length =
  let n = m0.rows in
  if m0.cols <> n then invalid_arg "Cmat.solve: matrix not square";
  if rhs_length <> n then invalid_arg "Cmat.solve: dimension mismatch";
  if Array.length w.xr <> n then invalid_arg "Cmat.solve_with: workspace size";
  Array.blit m0.re 0 w.re 0 (n * n);
  Array.blit m0.im 0 w.im 0 (n * n)

let solve_with w ~skip_zeros m0 b =
  let n = m0.rows in
  load w m0 (Array.length b);
  let xr = w.xr and xi = w.xi in
  for i = 0 to n - 1 do
    xr.(i) <- b.(i).Complex.re;
    xi.(i) <- b.(i).Complex.im
  done;
  eliminate w ~skip_zeros ~from:0;
  back_substitute w 0;
  Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })

let solve_entry w ~skip_zeros m0 ~re ~im k =
  let n = m0.rows in
  if Array.length im <> Array.length re then
    invalid_arg "Cmat.solve: dimension mismatch";
  if k >= n then invalid_arg "Cmat.solve_entry: entry outside the system";
  load w m0 (Array.length re);
  Array.blit re 0 w.xr 0 n;
  Array.blit im 0 w.xi 0 n;
  eliminate w ~skip_zeros ~from:0;
  let er = [| 0. |] and ei = [| 0. |] in
  entry_into w k ~re:er ~im:ei 0;
  { Complex.re = er.(0); im = ei.(0) }

let solve (m : t) b =
  let skip_zeros = not (Vec.has_neg_zero m.re || Vec.has_neg_zero m.im) in
  solve_with (work m.rows) ~skip_zeros m b
