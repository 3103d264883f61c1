type t = float array

let create n = Array.make n 0.

let init = Array.init

let dim = Array.length

let fill v x = Array.fill v 0 (Array.length v) x

let blit ~src ~dst =
  if Array.length src <> Array.length dst then
    invalid_arg "Vec.blit: dimension mismatch";
  Array.blit src 0 dst 0 (Array.length src)

let axpy ~alpha ~x ~y =
  if Array.length x <> Array.length y then
    invalid_arg "Vec.axpy: dimension mismatch";
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let dot a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vec.dot: dimension mismatch";
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

let norm_inf a = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. a

let max_abs_diff a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vec.max_abs_diff: dimension mismatch";
  let m = ref 0. in
  for i = 0 to Array.length a - 1 do
    m := Float.max !m (Float.abs (a.(i) -. b.(i)))
  done;
  !m

let has_neg_zero v = Array.exists (fun x -> x = 0. && Float.sign_bit x) v

let map = Array.map

(* the grids fill one flat float array in a loop: an Array.init or
   Array.map closure would box every element it returns *)
let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: need at least two points";
  let step = (b -. a) /. float_of_int (n - 1) in
  let v = Array.make n 0. in
  for i = 0 to n - 1 do
    v.(i) <- a +. (float_of_int i *. step)
  done;
  v

let logspace a b n =
  if a <= 0. || b <= 0. then invalid_arg "Vec.logspace: bounds must be > 0";
  let v = linspace (log a) (log b) n in
  for i = 0 to n - 1 do
    v.(i) <- exp v.(i)
  done;
  v
