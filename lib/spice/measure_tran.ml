let check_lengths times values =
  if Array.length times <> Array.length values || Array.length times < 2 then
    invalid_arg "Measure_tran: need matching arrays of at least two samples"

let final_value ~values =
  let n = Array.length values in
  if n = 0 then invalid_arg "Measure_tran.final_value: empty";
  let tail = Stdlib.max 1 (n / 20) in
  let acc = ref 0. in
  for i = n - tail to n - 1 do
    acc := !acc +. values.(i)
  done;
  !acc /. float_of_int tail

let slew_rate ~times ~values =
  check_lengths times values;
  let best = ref 0. in
  for i = 1 to Array.length times - 1 do
    let dt = times.(i) -. times.(i - 1) in
    if dt > 0. then
      best := Float.max !best (Float.abs ((values.(i) -. values.(i - 1)) /. dt))
  done;
  !best

let transition_amplitude ~values =
  Float.abs (final_value ~values -. values.(0))

let settling_time ?(tolerance = 0.01) ~times ~values () =
  check_lengths times values;
  let target = final_value ~values in
  let amplitude = transition_amplitude ~values in
  if amplitude <= 0. then Some times.(0)
  else begin
    let band = tolerance *. amplitude in
    (* last sample outside the band determines settling *)
    let n = Array.length values in
    let rec scan_back i =
      if i < 0 then Some times.(0)
      else if Float.abs (values.(i) -. target) > band then
        if i = n - 1 then None else Some times.(i + 1)
      else scan_back (i - 1)
    in
    scan_back (n - 1)
  end



let overshoot_pct ~times ~values =
  check_lengths times values;
  let target = final_value ~values in
  let amplitude = transition_amplitude ~values in
  if amplitude <= 0. then 0.
  else begin
    let rising = target > values.(0) in
    let peak =
      Array.fold_left (if rising then Float.max else Float.min) values.(0) values
    in
    let excess = if rising then peak -. target else target -. peak in
    Float.max 0. (100. *. excess /. amplitude)
  end
