type normalizer = {
  mins : float array;
  maxs : float array;
  mutable seen : int;
}

let create m =
  if m <= 0 then invalid_arg "Fitness.create: need at least one objective";
  { mins = Array.make m infinity; maxs = Array.make m neg_infinity; seen = 0 }

let observe t objectives =
  if Array.length objectives <> Array.length t.mins then
    invalid_arg "Fitness.observe: objective count mismatch";
  if Array.for_all Float.is_finite objectives then begin
    Array.iteri
      (fun j v ->
        t.mins.(j) <- Float.min t.mins.(j) v;
        t.maxs.(j) <- Float.max t.maxs.(j) v)
      objectives;
    t.seen <- t.seen + 1
  end

let observed t = t.seen

let normalise t objectives =
  Array.mapi
    (fun j v ->
      let lo = t.mins.(j) and hi = t.maxs.(j) in
      if not (Float.is_finite lo) || not (Float.is_finite hi) || hi <= lo then 0.5
      else (v -. lo) /. (hi -. lo))
    objectives

let weighted_sum t ~weights objectives =
  if Array.length weights <> Array.length objectives then
    invalid_arg "Fitness.weighted_sum: weight count mismatch";
  if not (Array.for_all Float.is_finite objectives) then neg_infinity
  else begin
    let normed = normalise t objectives in
    let acc = ref 0. in
    Array.iteri (fun j w -> acc := !acc +. (w *. normed.(j))) weights;
    !acc
  end

(* serialisable snapshot for checkpoint/resume; defined last so its fields
   do not shadow [normalizer]'s in the functions above *)
type state = { mins : float array; maxs : float array; seen : int }

let save (t : normalizer) : state =
  { mins = Array.copy t.mins; maxs = Array.copy t.maxs; seen = t.seen }

let restore (t : normalizer) (s : state) =
  if Array.length s.mins <> Array.length t.mins then
    invalid_arg "Fitness.restore: objective count mismatch";
  Array.blit s.mins 0 t.mins 0 (Array.length t.mins);
  Array.blit s.maxs 0 t.maxs 0 (Array.length t.maxs);
  t.seen <- s.seen
