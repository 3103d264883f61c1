(* Row-major storage in a single flat array keeps LU factorisation cache
   friendly, which matters because the Newton loop refactorises every
   iteration. *)

type t = { rows : int; cols : int; data : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) 0. }

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    m.data.((i * n) + i) <- 1.
  done;
  m

let init rows cols f =
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      data.((i * cols) + j) <- f i j
    done
  done;
  { rows; cols; data }

let of_arrays a =
  let rows = Array.length a in
  if rows = 0 then invalid_arg "Mat.of_arrays: empty";
  let cols = Array.length a.(0) in
  Array.iter
    (fun row ->
      if Array.length row <> cols then invalid_arg "Mat.of_arrays: ragged")
    a;
  init rows cols (fun i j -> a.(i).(j))

let rows m = m.rows

let cols m = m.cols

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let add_to m i j x =
  let k = (i * m.cols) + j in
  m.data.(k) <- m.data.(k) +. x

let fill m x = Array.fill m.data 0 (Array.length m.data) x

let mul_vec m v =
  if m.cols <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. v.(j))
      done;
      !acc)

let transpose m = init m.cols m.rows (fun i j -> get m j i)
