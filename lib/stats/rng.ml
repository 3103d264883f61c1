(* xoshiro256++ by Blackman & Vigna (public domain reference implementation),
   seeded via splitmix64 so that small integer seeds still give
   well-distributed initial state. *)

type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
  mutable cached_gaussian : float option;
}

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3; cached_gaussian = None }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let uint64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  (* derive a child stream by hashing fresh output through splitmix64 *)
  let state = ref (uint64 t) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3; cached_gaussian = None }

let copy t = { t with cached_gaussian = t.cached_gaussian }

let float t =
  (* take the top 53 bits *)
  let bits = Int64.shift_right_logical (uint64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let uniform t a b = a +. ((b -. a) *. float t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* rejection-free for our purposes: 53-bit float scaled; n is always far
     below 2^53 in this library *)
  Stdlib.int_of_float (float t *. Stdlib.float_of_int n)

let gaussian t =
  match t.cached_gaussian with
  | Some g ->
      t.cached_gaussian <- None;
      g
  | None ->
      (* Box–Muller on (0,1] uniforms to avoid log 0 *)
      let u1 = 1. -. float t in
      let u2 = float t in
      let r = sqrt (-2. *. log u1) in
      let theta = 2. *. Float.pi *. u2 in
      t.cached_gaussian <- Some (r *. sin theta);
      r *. cos theta

let normal t ~mean ~sigma = mean +. (sigma *. gaussian t)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* serialisable snapshot for checkpoint/resume; defined last so its fields
   do not shadow [t]'s in the functions above *)
type state = {
  s0 : int64;
  s1 : int64;
  s2 : int64;
  s3 : int64;
  cached_gaussian : float option;
}

let save (t : t) : state =
  {
    s0 = t.s0;
    s1 = t.s1;
    s2 = t.s2;
    s3 = t.s3;
    cached_gaussian = t.cached_gaussian;
  }

let restore (t : t) (s : state) =
  t.s0 <- s.s0;
  t.s1 <- s.s1;
  t.s2 <- s.s2;
  t.s3 <- s.s3;
  t.cached_gaussian <- s.cached_gaussian

let of_state (s : state) : t =
  {
    s0 = s.s0;
    s1 = s.s1;
    s2 = s.s2;
    s3 = s.s3;
    cached_gaussian = s.cached_gaussian;
  }
