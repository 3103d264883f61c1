(* xoshiro256++ by Blackman & Vigna (public domain reference implementation),
   seeded via splitmix64 so that small integer seeds still give
   well-distributed initial state.

   The state lives in one flat buffer, so that drawing allocates nothing:
   s0 .. s3 at bytes 0, 8, 16 and 24, the bits of the cached second
   Box-Muller deviate at byte 32 and, at byte 40, whether one is cached.
   Mutable [int64] fields would box a fresh value on every write.  The
   helpers below are inlined into each entry point, so their [int64]s and
   floats stay unboxed. *)

type t = Bytes.t

let length = 41

let cached_at = 32

let flag_at = 40

let[@inline] get t i = Bytes.get_int64_le t i

let[@inline] set t i v = Bytes.set_int64_le t i v

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* four splitmix64 outputs from [state] into a fresh generator *)
let[@inline] seeded state =
  let g = 0x9E3779B97F4A7C15L in
  let t = Bytes.make length '\000' in
  let state = Int64.add state g in
  set t 0 (mix state);
  let state = Int64.add state g in
  set t 8 (mix state);
  let state = Int64.add state g in
  set t 16 (mix state);
  set t 24 (mix (Int64.add state g));
  t

let create seed = seeded (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] uint64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 8 and s2 = get t 16 and s3 = get t 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tmp = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tmp in
  let s3 = rotl s3 45 in
  set t 0 s0;
  set t 8 s1;
  set t 16 s2;
  set t 24 s3;
  result

(* derive a child stream by hashing fresh output through splitmix64 *)
let split t = seeded (uint64 t)

let copy = Bytes.copy

let[@inline] float t =
  (* take the top 53 bits *)
  let bits = Int64.shift_right_logical (uint64 t) 11 in
  Int64.to_float bits *. 0x1.0p-53

let uniform t a b = a +. ((b -. a) *. float t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* rejection-free for our purposes: 53-bit float scaled; n is always far
     below 2^53 in this library *)
  Stdlib.int_of_float (float t *. Stdlib.float_of_int n)

let[@inline] cached t = Bytes.unsafe_get t flag_at <> '\000'

let[@inline] gaussian t =
  if cached t then begin
    Bytes.unsafe_set t flag_at '\000';
    Int64.float_of_bits (get t cached_at)
  end
  else begin
    (* Box–Muller on (0,1] uniforms to avoid log 0 *)
    let u1 = 1. -. float t in
    let u2 = float t in
    let r = sqrt (-2. *. log u1) in
    let theta = 2. *. Float.pi *. u2 in
    set t cached_at (Int64.bits_of_float (r *. sin theta));
    Bytes.unsafe_set t flag_at '\001';
    r *. cos theta
  end

let gaussian_into t a i = a.(i) <- gaussian t

let normal t ~mean ~sigma = mean +. (sigma *. gaussian t)

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

type state = {
  s0 : int64;
  s1 : int64;
  s2 : int64;
  s3 : int64;
  cached_gaussian : float option;
}

let save t =
  {
    s0 = get t 0;
    s1 = get t 8;
    s2 = get t 16;
    s3 = get t 24;
    cached_gaussian =
      (if cached t then Some (Int64.float_of_bits (get t cached_at)) else None);
  }

let restore t s =
  set t 0 s.s0;
  set t 8 s.s1;
  set t 16 s.s2;
  set t 24 s.s3;
  match s.cached_gaussian with
  | Some g ->
      set t cached_at (Int64.bits_of_float g);
      Bytes.unsafe_set t flag_at '\001'
  | None ->
      set t cached_at 0L;
      Bytes.unsafe_set t flag_at '\000'

let of_state s =
  let t = Bytes.make length '\000' in
  restore t s;
  t
