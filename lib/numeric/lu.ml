(* [a.!(i)]: [factor_into] and [solve_into] index their own n*n factor
   and permutation unchecked (the type is abstract); [b] and [x] keep
   [a.(i)] *)
open Unchecked

exception Singular of int

(* Doolittle LU with partial pivoting, stored packed in one matrix: the unit
   lower triangle in the strict lower part, U in the upper part.  [perm] maps
   factored row index -> original row index of b.  [nz] is scratch for the
   columns of the current pivot row that the matrix update must touch. *)
type t = { lu : Mat.t; perm : int array; mutable swaps : int; nz : int array }

let pivot_floor = 1e-300

let create n =
  { lu = Mat.create n n; perm = Array.make n 0; swaps = 0; nz = Array.make n 0 }

(* The kernels index the flat row-major array: entry (i, j) is a.(i*n + j).
   Skipping an exactly-zero pivot-row column u in [m -. (f *. u)] leaves m
   unchanged, bit for bit, whenever f is finite and m is not -0 (m - (+-0)
   is m, but -0 - -0 is +0); a non-finite f takes the full row, where
   f *. 0. is NaN. *)
let factor_into f ~skip_zeros m =
  let n = f.lu.Mat.rows in
  if m.Mat.rows <> n || m.Mat.cols <> n then
    invalid_arg "Lu.factor_into: dimension mismatch";
  let a = f.lu.Mat.data and perm = f.perm and nz = f.nz in
  Array.blit m.Mat.data 0 a 0 (n * n);
  for i = 0 to n - 1 do
    perm.!(i) <- i
  done;
  let swaps = ref 0 in
  for k = 0 to n - 1 do
    (* choose the pivot row *)
    let best = ref k and best_mag = ref (Float.abs a.!((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let mag = Float.abs a.!((i * n) + k) in
      if mag > !best_mag then begin
        best := i;
        best_mag := mag
      end
    done;
    if !best_mag < pivot_floor then raise (Singular k);
    let rk = k * n in
    if !best <> k then begin
      incr swaps;
      let tmp = perm.!(k) in
      perm.!(k) <- perm.!(!best);
      perm.!(!best) <- tmp;
      let rb = !best * n in
      for j = 0 to n - 1 do
        let t = a.!(rk + j) in
        a.!(rk + j) <- a.!(rb + j);
        a.!(rb + j) <- t
      done
    end;
    let pivot = a.!(rk + k) in
    let nnz = ref 0 in
    for j = k + 1 to n - 1 do
      if (not skip_zeros) || a.!(rk + j) <> 0. then begin
        nz.!(!nnz) <- j;
        incr nnz
      end
    done;
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let factor = a.!(ri + k) /. pivot in
      a.!(ri + k) <- factor;
      if factor <> 0. then
        if Float.is_finite factor then
          for t = 0 to !nnz - 1 do
            let j = nz.!(t) in
            a.!(ri + j) <- a.!(ri + j) -. (factor *. a.!(rk + j))
          done
        else
          for j = k + 1 to n - 1 do
            a.!(ri + j) <- a.!(ri + j) -. (factor *. a.!(rk + j))
          done
    done
  done;
  f.swaps <- !swaps

let factor m =
  let n = Mat.rows m in
  if Mat.cols m <> n then invalid_arg "Lu.factor: matrix not square";
  let f = create n in
  factor_into f ~skip_zeros:(not (Vec.has_neg_zero m.Mat.data)) m;
  f

let solve_into f b x =
  let n = f.lu.Mat.rows in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Lu.solve_into: dimension mismatch";
  if x == b then invalid_arg "Lu.solve_into: the solution aliases the right-hand side";
  let a = f.lu.Mat.data and perm = f.perm in
  (* apply the permutation *)
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.!(i))
  done;
  (* forward substitution: L y = P b *)
  for i = 1 to n - 1 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (a.!(ri + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* back substitution: U x = y *)
  for i = n - 1 downto 0 do
    let ri = i * n in
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.!(ri + j) *. x.(j))
    done;
    x.(i) <- !acc /. a.!(ri + i)
  done

let solve f b =
  let x = Array.make (Array.length b) 0. in
  solve_into f b x;
  x

let solve_in_place f b =
  let x = solve f b in
  Array.blit x 0 b 0 (Array.length b)

let solve_system m b = solve (factor m) b

let det f =
  let n = Mat.rows f.lu in
  let d = ref (if f.swaps land 1 = 1 then -1. else 1.) in
  for i = 0 to n - 1 do
    d := !d *. Mat.get f.lu i i
  done;
  !d
