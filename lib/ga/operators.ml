module Rng = Yield_stats.Rng

type selection = Tournament of int

type crossover = One_point | Blend of float

type mutation = Gaussian of { sigma : float; rate : float }

let select (Tournament k) rng ~fitness =
  let n = Array.length fitness in
  if n = 0 then invalid_arg "Operators.select: empty population";
  let k = Stdlib.max 1 k in
  let best = ref (Rng.int rng n) in
  for _ = 2 to k do
    let c = Rng.int rng n in
    if fitness.(c) > fitness.(!best) then best := c
  done;
  !best

let cross op rng a b =
  let n = Array.length a in
  if Array.length b <> n then invalid_arg "Operators.cross: length mismatch";
  let c1 = Array.copy a and c2 = Array.copy b in
  (match op with
  | One_point ->
      if n > 1 then begin
        let point = 1 + Rng.int rng (n - 1) in
        for i = point to n - 1 do
          c1.(i) <- b.(i);
          c2.(i) <- a.(i)
        done
      end
  | Blend alpha ->
      for i = 0 to n - 1 do
        let lo = Float.min a.(i) b.(i) and hi = Float.max a.(i) b.(i) in
        let d = hi -. lo in
        let lo' = lo -. (alpha *. d) and hi' = hi +. (alpha *. d) in
        c1.(i) <- Rng.uniform rng lo' hi';
        c2.(i) <- Rng.uniform rng lo' hi'
      done);
  Genome.clamp c1;
  Genome.clamp c2;
  (c1, c2)

let mutate (Gaussian { sigma; rate }) rng g =
  for i = 0 to Array.length g - 1 do
    if Rng.float rng < rate then g.(i) <- g.(i) +. Rng.normal rng ~mean:0. ~sigma
  done;
  Genome.clamp g
