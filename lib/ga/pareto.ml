let dominates ~maximise a b =
  let m = Array.length maximise in
  if Array.length a <> m || Array.length b <> m then
    invalid_arg "Pareto.dominates: objective count mismatch";
  let at_least_as_good = ref true and strictly_better = ref false in
  for j = 0 to m - 1 do
    let ga, gb = if maximise.(j) then (a.(j), b.(j)) else (-.a.(j), -.b.(j)) in
    if ga < gb then at_least_as_good := false;
    if ga > gb then strictly_better := true
  done;
  !at_least_as_good && !strictly_better

let non_dominated ~maximise points =
  let n = Array.length points in
  let dominated = Array.make n false in
  for i = 0 to n - 1 do
    if not dominated.(i) then
      for j = 0 to n - 1 do
        if j <> i && (not dominated.(i)) && dominates ~maximise points.(j) points.(i)
        then dominated.(i) <- true
      done
  done;
  let rec collect i acc =
    if i < 0 then acc
    else collect (i - 1) (if dominated.(i) then acc else i :: acc)
  in
  collect (n - 1) []

(* Kung's sort-and-scan for two maximised objectives: sort by obj0
   descending (obj1 descending as tie-break), keep points whose obj1 exceeds
   the running maximum.  Ties on both objectives are all kept. *)
let front_2d points =
  let n = Array.length points in
  if n = 0 then []
  else begin
    Array.iter
      (fun p ->
        if Array.length p <> 2 then invalid_arg "Pareto.front_2d: need 2 objectives")
      points;
    let order = Array.init n Fun.id in
    Array.sort
      (fun i j ->
        match Float.compare points.(j).(0) points.(i).(0) with
        | 0 -> Float.compare points.(j).(1) points.(i).(1)
        | c -> c)
      order;
    let best1 = ref neg_infinity in
    let front = ref [] in
    Array.iter
      (fun i ->
        let y = points.(i).(1) in
        if y > !best1 then begin
          front := i :: !front;
          best1 := y
        end
        else if y = !best1 then begin
          (* keep exact duplicates of the current frontier point only when the
             x coordinate also ties (otherwise it is dominated) *)
          match !front with
          | j :: _ when points.(j).(0) = points.(i).(0) -> front := i :: !front
          | _ -> ()
        end)
      order;
    List.sort compare !front
  end
