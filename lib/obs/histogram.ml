type t = {
  mutable count : int;
  moments : float array;
      (** the sum, min and max: in a float array, so that updating them
          boxes no float *)
  store : float array;  (** reservoir; the first [stored] cells are live *)
  mutable lcg : int;  (** deterministic replacement stream *)
  lock : Mutex.t;
}

(* the slots of [moments] *)
let i_sum = 0

let i_min = 1

let i_max = 2

type summary = {
  count : int;
  sum : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

let create ?(capacity = 2048) () =
  if capacity <= 0 then invalid_arg "Histogram.create: capacity <= 0";
  {
    count = 0;
    moments = [| 0.; infinity; neg_infinity |];
    store = Array.make capacity 0.;
    lcg = 0x2545F49;
    lock = Mutex.create ();
  }

(* inlined into both entry points, so an int observation's float is
   never boxed *)
let[@inline] record t v =
  Mutex.lock t.lock;
  t.count <- t.count + 1;
  let m = t.moments in
  m.(i_sum) <- m.(i_sum) +. v;
  if v < m.(i_min) then m.(i_min) <- v;
  if v > m.(i_max) then m.(i_max) <- v;
  let cap = Array.length t.store in
  if t.count <= cap then t.store.(t.count - 1) <- v
  else begin
    (* reservoir sampling: keep each observation with probability cap/count *)
    t.lcg <- ((t.lcg * 1103515245) + 12345) land 0x3FFFFFFF;
    let j = t.lcg mod t.count in
    if j < cap then t.store.(j) <- v
  end;
  Mutex.unlock t.lock

let observe t v = record t v

let observe_int t n = record t (float_of_int n)

let count t =
  Mutex.lock t.lock;
  let c = t.count in
  Mutex.unlock t.lock;
  c

(* snapshot of the live reservoir plus the exact moments, under the lock *)
let snapshot t =
  Mutex.lock t.lock;
  let stored = Stdlib.min t.count (Array.length t.store) in
  let values = Array.sub t.store 0 stored in
  let m = t.moments in
  let count = t.count and sum = m.(i_sum) and vmin = m.(i_min) and vmax = m.(i_max) in
  Mutex.unlock t.lock;
  (count, sum, vmin, vmax, values)

let quantile_of_sorted xs q =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let h = q *. float_of_int (n - 1) in
    let clamp i = Stdlib.max 0 (Stdlib.min (n - 1) i) in
    let lo = clamp (int_of_float (Float.floor h)) in
    let hi = clamp (int_of_float (Float.ceil h)) in
    xs.(lo) +. ((h -. float_of_int lo) *. (xs.(hi) -. xs.(lo)))
  end

let summarize t =
  let count, sum, vmin, vmax, values = snapshot t in
  if count = 0 then
    (* nan, not 0.: an empty histogram must be distinguishable from one
       that really observed zeros — the JSON sinks turn nan into null *)
    {
      count = 0;
      sum = 0.;
      mean = Float.nan;
      min = Float.nan;
      max = Float.nan;
      p50 = Float.nan;
      p90 = Float.nan;
      p95 = Float.nan;
      p99 = Float.nan;
    }
  else begin
    Array.sort Float.compare values;
    {
      count;
      sum;
      mean = sum /. float_of_int count;
      min = vmin;
      max = vmax;
      p50 = quantile_of_sorted values 0.5;
      p90 = quantile_of_sorted values 0.9;
      p95 = quantile_of_sorted values 0.95;
      p99 = quantile_of_sorted values 0.99;
    }
  end

let quantile t q =
  let _, _, _, _, values = snapshot t in
  Array.sort Float.compare values;
  quantile_of_sorted values q

let reset t =
  Mutex.lock t.lock;
  t.count <- 0;
  t.moments.(i_sum) <- 0.;
  t.moments.(i_min) <- infinity;
  t.moments.(i_max) <- neg_infinity;
  Mutex.unlock t.lock
