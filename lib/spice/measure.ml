(* inlined, so that no magnitude or phase is boxed on its way out; the
   parts' forms are Complex.norm's and Complex.arg's *)
let[@inline] magnitude_db_of re im =
  let m = Float.hypot re im in
  if m <= 0. then neg_infinity else 20. *. log10 m

let[@inline] phase_deg_of re im = atan2 im re *. 180. /. Float.pi

let magnitude_db (z : Complex.t) = magnitude_db_of z.re z.im

let phase_deg (z : Complex.t) = phase_deg_of z.re z.im

let set_magnitude_db (r : Mna.response) k =
  r.mag_db.(k) <- magnitude_db_of r.re.(k) r.im.(k)

(* one flat float array filled in a loop: Array.map would box every
   magnitude its closure returns *)
let magnitudes_db (b : Ac.bode) =
  let r = b.response in
  let out = Array.make (Array.length r) 0. in
  for i = 0 to Array.length r - 1 do
    out.(i) <- magnitude_db r.(i)
  done;
  out

(* the one unwrapping: [a.(0 .. n-1)] holds principal-value phases, and
   each from the second on loses the 360-degree wraps relative to the
   unwrapped point before it *)
let unwrap a n =
  for i = 1 to n - 1 do
    let raw = a.(i) in
    let diff = raw -. a.(i - 1) in
    let wraps = Float.round (diff /. 360.) in
    a.(i) <- raw -. (360. *. wraps)
  done

let phases_deg_unwrapped (b : Ac.bode) =
  let n = Array.length b.response in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    out.(i) <- phase_deg b.response.(i)
  done;
  unwrap out n;
  out

let set_phases_deg_unwrapped (r : Mna.response) n =
  let a = r.phase_deg in
  for i = 0 to n - 1 do
    a.(i) <- phase_deg_of r.re.(i) r.im.(i)
  done;
  unwrap a n

let dc_gain_db b =
  if Array.length b.Ac.response = 0 then invalid_arg "Measure.dc_gain_db: empty";
  magnitude_db b.Ac.response.(0)

(* the first downward crossing from point [i] on; top-level, so a
   measurement allocates no closure *)
let rec scan_crossing ~n ~xs ~ys ~level ~log_x i =
  if i >= n - 1 then None
  else if ys.(i) >= level && ys.(i + 1) < level then begin
    let y0 = ys.(i) and y1 = ys.(i + 1) in
    if y0 = y1 then Some xs.(i)
    else begin
      let t = (y0 -. level) /. (y0 -. y1) in
      if log_x then
        Some (exp (log xs.(i) +. (t *. (log xs.(i + 1) -. log xs.(i)))))
      else Some (xs.(i) +. (t *. (xs.(i + 1) -. xs.(i))))
    end
  end
  else scan_crossing ~n ~xs ~ys ~level ~log_x (i + 1)

let crossing ?n ~xs ~ys ~level ?(log_x = true) () =
  (* the points it reads: the first [n], or the whole of [xs], which [ys]
     must then match *)
  let n =
    match n with
    | None ->
        let n = Array.length xs in
        if n <> Array.length ys then invalid_arg "Measure.crossing: length mismatch";
        n
    | Some n ->
        if n < 0 || n > Array.length xs || n > Array.length ys then
          invalid_arg "Measure.crossing: prefix beyond the arrays";
        n
  in
  scan_crossing ~n ~xs ~ys ~level ~log_x 0

let interp_at ?n ~xs ~ys x ~log_x =
  let n = match n with None -> Array.length xs | Some n -> n in
  if x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    (* the first segment ending at or past [x], in a loop: a recursive
       function would box [x] at every step *)
    let i = ref 0 in
    while not (xs.(!i + 1) >= x) do
      incr i
    done;
    let i = !i in
    let t =
      if log_x then (log x -. log xs.(i)) /. (log xs.(i + 1) -. log xs.(i))
      else (x -. xs.(i)) /. (xs.(i + 1) -. xs.(i))
    in
    ys.(i) +. (t *. (ys.(i + 1) -. ys.(i)))
  end

let unity_gain_freq b =
  crossing ~xs:b.Ac.freqs ~ys:(magnitudes_db b) ~level:0. ()

let phase_margin_deg b =
  match unity_gain_freq b with
  | None -> None
  | Some fu ->
      let phases = phases_deg_unwrapped b in
      let phase_u = interp_at ~xs:b.Ac.freqs ~ys:phases fu ~log_x:true in
      Some (180. +. phase_u)

let f3db b =
  let dc = dc_gain_db b in
  crossing ~xs:b.Ac.freqs ~ys:(magnitudes_db b) ~level:(dc -. 3.) ()
