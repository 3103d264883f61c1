(* Tests for the yield_table library: splines, control strings, curves
   and .tbl I/O. *)

module Spline = Yield_table.Spline
module Control = Yield_table.Control
module Table1d = Yield_table.Table1d
module Curve = Yield_table.Curve
module Tbl_io = Yield_table.Tbl_io
module Rng = Yield_stats.Rng

let check_float ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" what expected actual

(* --- splines --- *)

let xs5 = [| 0.; 1.; 2.; 3.; 4. |]

let test_spline_reproduces_knots () =
  let ys = [| 1.; -1.; 2.; 0.; 3. |] in
  List.iter
    (fun (name, build) ->
      let s = build xs5 ys in
      Array.iteri
        (fun i x -> check_float ~eps:1e-9 (name ^ " knot") ys.(i) (Spline.eval s x))
        xs5)
    [ ("linear", Spline.linear); ("quadratic", Spline.quadratic); ("cubic", Spline.cubic) ]

let test_linear_midpoints () =
  let s = Spline.linear [| 0.; 2. |] [| 0.; 4. |] in
  check_float "mid" 2. (Spline.eval s 1.);
  check_float "slope" 2. (Spline.derivative s 1.)

let test_cubic_exact_on_cubics_interior () =
  (* natural cubic splines reproduce straight lines exactly *)
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs5 in
  let s = Spline.cubic xs5 ys in
  check_float ~eps:1e-9 "line" 4.0 (Spline.eval s 1.5);
  check_float ~eps:1e-9 "derivative" 2. (Spline.derivative s 2.3)

let test_cubic_smoothness () =
  (* C1 continuity at an interior knot *)
  let ys = [| 0.; 1.; 0.; 2.; -1. |] in
  let s = Spline.cubic xs5 ys in
  let h = 1e-7 in
  let left = (Spline.eval s 2. -. Spline.eval s (2. -. h)) /. h in
  let right = (Spline.eval s (2. +. h) -. Spline.eval s 2.) /. h in
  check_float ~eps:1e-5 "derivative continuous" left right

let test_spline_validation () =
  (match Spline.cubic [| 0.; 0. |] [| 1.; 2. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing knots accepted");
  match Spline.linear [| 0. |] [| 1. |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single knot accepted"

let prop_cubic_interpolates_smooth_functions =
  QCheck.Test.make ~count:60 ~name:"cubic spline tracks sin within grid error"
    QCheck.(float_range 0.3 2.8)
    (fun x ->
      let xs = Array.init 30 (fun i -> float_of_int i /. 29. *. Float.pi) in
      let ys = Array.map sin xs in
      let s = Spline.cubic xs ys in
      Float.abs (Spline.eval s x -. sin x) < 1e-4)

let test_monotone_cubic_no_overshoot () =
  (* a step-like data set: natural cubic rings, pchip must not *)
  let xs = [| 0.; 1.; 2.; 3.; 4.; 5. |] in
  let ys = [| 0.; 0.; 0.; 1.; 1.; 1. |] in
  let s = Spline.monotone_cubic xs ys in
  (* knots reproduced *)
  Array.iteri (fun i x -> check_float "knot" ys.(i) (Spline.eval s x)) xs;
  (* no value outside [0, 1] anywhere *)
  let ok = ref true in
  for i = 0 to 500 do
    let x = float_of_int i /. 100. in
    let v = Spline.eval s x in
    if v < -1e-12 || v > 1. +. 1e-12 then ok := false
  done;
  Alcotest.(check bool) "stays within data" true !ok;
  (* natural cubic does overshoot this data set *)
  let nat = Spline.cubic xs ys in
  let overshoots = ref false in
  for i = 0 to 500 do
    let v = Spline.eval nat (float_of_int i /. 100.) in
    if v < -1e-6 || v > 1. +. 1e-6 then overshoots := true
  done;
  Alcotest.(check bool) "natural cubic rings on steps" true !overshoots

let prop_monotone_cubic_is_monotone =
  QCheck.Test.make ~count:100 ~name:"pchip preserves monotonicity"
    QCheck.(int_bound 100000)
    (fun seed ->
      let rng = Rng.create seed in
      let n = 4 + Rng.int rng 10 in
      let xs = Array.init n (fun i -> float_of_int i +. (0.3 *. Rng.float rng)) in
      (* monotone increasing data with random increments *)
      let ys = Array.make n 0. in
      for i = 1 to n - 1 do
        ys.(i) <- ys.(i - 1) +. Rng.float rng
      done;
      let s = Spline.monotone_cubic xs ys in
      let ok = ref true in
      let prev = ref (Spline.eval s xs.(0)) in
      for i = 1 to 300 do
        let x = xs.(0) +. (float_of_int i /. 300. *. (xs.(n - 1) -. xs.(0))) in
        let v = Spline.eval s x in
        if v < !prev -. 1e-9 then ok := false;
        prev := v
      done;
      !ok)

(* --- control strings --- *)

let test_control_parse () =
  (match Control.parse "3E" with
  | [ Control.Interpolate { degree = Control.Cubic; extrapolation = Control.Error } ] -> ()
  | _ -> Alcotest.fail "3E misparsed");
  (match Control.parse "1C,2L" with
  | [
   Control.Interpolate { degree = Control.Linear; extrapolation = Control.Clamp };
   Control.Interpolate { degree = Control.Quadratic; extrapolation = Control.Extend };
  ] ->
      ()
  | _ -> Alcotest.fail "1C,2L misparsed");
  (match Control.parse "I" with
  | [ Control.Ignore ] -> ()
  | _ -> Alcotest.fail "I misparsed");
  (match Control.parse "ME" with
  | [ Control.Interpolate { degree = Control.Monotone; extrapolation = Control.Error } ] -> ()
  | _ -> Alcotest.fail "ME misparsed");
  match Control.parse "9Q" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad token accepted"

let test_control_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (Control.to_string (Control.parse s)))
    [ "3E"; "1C"; "2L"; "3E,3E"; "I"; "1C,3E,2L"; "ME" ]

(* --- 1-D tables --- *)

let test_table1d_extrapolation_modes () =
  let xs = [| 0.; 1.; 2. |] and ys = [| 0.; 1.; 4. |] in
  let clamp = Table1d.create ~control:(Control.parse_axis "1C") xs ys in
  check_float "clamp low" 0. (Table1d.eval clamp (-5.));
  check_float "clamp high" 4. (Table1d.eval clamp 10.);
  let extend = Table1d.create ~control:(Control.parse_axis "1L") xs ys in
  check_float "extend low" (-1.) (Table1d.eval extend (-1.));
  check_float "extend high" 7. (Table1d.eval extend 3.);
  let error = Table1d.create ~control:(Control.parse_axis "1E") xs ys in
  check_float "error inside ok" 1. (Table1d.eval error 1.);
  (match Table1d.eval error 2.5 with
  | exception Table1d.Out_of_range { value; lo; hi } ->
      check_float "exn value" 2.5 value;
      check_float "exn lo" 0. lo;
      check_float "exn hi" 2. hi
  | _ -> Alcotest.fail "expected Out_of_range");
  Alcotest.(check (option (float 1e-9))) "eval_opt none" None
    (Table1d.eval_opt error 2.5)

let test_table1d_of_unsorted () =
  let t = Table1d.of_unsorted [| (2., 4.); (0., 0.); (1., 1.); (1., 3.) |] in
  (* duplicate x = 1 averaged to 2 *)
  check_float "averaged duplicate" 2. (Table1d.eval t 1.);
  check_float "sorted ends" 0. (Table1d.eval t 0.)

(* --- curves --- *)

let quarter_circle n =
  Array.init n (fun i ->
      let t = float_of_int i /. float_of_int (n - 1) *. (Float.pi /. 2.) in
      [| cos t; sin t |])

let test_curve_projection () =
  let inputs = quarter_circle 40 in
  let angle = Array.init 40 (fun i -> float_of_int i /. 39. *. 90.) in
  let c = Curve.create ~inputs ~columns:[ ("angle", angle) ] () in
  (* a point on the curve evaluates to its own parameter *)
  let v = Curve.eval c "angle" [| cos 0.5; sin 0.5 |] in
  check_float ~eps:0.02 "on-curve angle" (0.5 *. 180. /. Float.pi) v;
  (* a point off the curve projects to the nearest arc *)
  let v2 = Curve.eval c "angle" [| 2. *. cos 0.7; 2. *. sin 0.7 |] in
  check_float ~eps:0.05 "projected angle" (0.7 *. 180. /. Float.pi) v2;
  let _, dist = Curve.project c [| 0.; 0. |] in
  Alcotest.(check bool) "distance reported" true (dist > 0.4)

let test_curve_duplicates_merged () =
  let inputs = [| [| 0.; 0. |]; [| 0.; 0. |]; [| 1.; 1. |] |] in
  let c = Curve.create ~inputs ~columns:[ ("y", [| 5.; 5.; 7. |]) ] () in
  check_float ~eps:1e-6 "end value" 7. (Curve.eval c "y" [| 1.; 1. |])

let test_curve_decimation () =
  (* 1000 nearly coincident points plus two distinct ends must not blow up *)
  let inputs =
    Array.init 1000 (fun i ->
        let t = if i = 0 then 0. else if i = 999 then 1. else 0.5 +. (1e-9 *. float_of_int i) in
        [| t; t |])
  in
  let col = Array.init 1000 (fun i -> float_of_int i) in
  let c = Curve.create ~inputs ~columns:[ ("v", col) ] () in
  let v = Curve.eval c "v" [| 0.75; 0.75 |] in
  Alcotest.(check bool) "finite result" true (Float.is_finite v)

let test_curve_errors () =
  (match Curve.create ~inputs:[| [| 0. |] |] ~columns:[] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single point accepted");
  let c =
    Curve.create ~inputs:[| [| 0.; 0. |]; [| 1.; 1. |] |]
      ~columns:[ ("y", [| 0.; 1. |]) ] ()
  in
  match Curve.eval c "nope" [| 0.; 0. |] with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unknown column accepted"

(* --- tbl io --- *)

let test_tbl_roundtrip () =
  let t =
    Tbl_io.create ~columns:[| "a"; "b" |]
      ~rows:[| [| 1.; 2. |]; [| 3.; 4.5 |]; [| -1e-12; 7e9 |] |]
  in
  let t2 = Tbl_io.of_string (Tbl_io.to_string t) in
  Alcotest.(check (array string)) "columns" t.Tbl_io.columns t2.Tbl_io.columns;
  Alcotest.(check int) "rows" 3 (Tbl_io.n_rows t2);
  check_float ~eps:1e-15 "precision kept" 7e9 (Tbl_io.column t2 "b").(2)

let test_tbl_default_columns () =
  let t = Tbl_io.of_string "1 2 3\n4 5 6\n" in
  Alcotest.(check (array string)) "names" [| "c0"; "c1"; "c2" |] t.Tbl_io.columns

let test_tbl_comments_and_blanks () =
  let t = Tbl_io.of_string "# a comment\n\n1 2\n# another\n3 4\n" in
  Alcotest.(check int) "rows" 2 (Tbl_io.n_rows t)

let test_tbl_ragged_rejected () =
  match Tbl_io.of_string "1 2\n3\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "ragged accepted"

let test_tbl_sort_by () =
  let t = Tbl_io.create ~columns:[| "x"; "y" |] ~rows:[| [| 3.; 1. |]; [| 1.; 2. |] |] in
  let s = Tbl_io.sort_by t "x" in
  check_float "sorted first" 1. s.Tbl_io.rows.(0).(0)

let test_tbl_file_io () =
  let path = Filename.temp_file "yieldlab" ".tbl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let t = Tbl_io.create ~columns:[| "x" |] ~rows:[| [| 42. |] |] in
      Tbl_io.write ~path t;
      let t2 = Tbl_io.read ~path in
      check_float "roundtrip through disk" 42. (Tbl_io.column t2 "x").(0))

let suites =
  [
    ( "table.spline",
      [
        Alcotest.test_case "reproduces knots" `Quick test_spline_reproduces_knots;
        Alcotest.test_case "linear midpoints" `Quick test_linear_midpoints;
        Alcotest.test_case "exact on lines" `Quick test_cubic_exact_on_cubics_interior;
        Alcotest.test_case "C1 smooth" `Quick test_cubic_smoothness;
        Alcotest.test_case "validation" `Quick test_spline_validation;
        Alcotest.test_case "pchip no overshoot" `Quick test_monotone_cubic_no_overshoot;
        QCheck_alcotest.to_alcotest prop_monotone_cubic_is_monotone;
        QCheck_alcotest.to_alcotest prop_cubic_interpolates_smooth_functions;
      ] );
    ( "table.control",
      [
        Alcotest.test_case "parse" `Quick test_control_parse;
        Alcotest.test_case "roundtrip" `Quick test_control_roundtrip;
      ] );
    ( "table.table1d",
      [
        Alcotest.test_case "extrapolation modes" `Quick test_table1d_extrapolation_modes;
        Alcotest.test_case "of_unsorted" `Quick test_table1d_of_unsorted;
      ] );
    ( "table.curve",
      [
        Alcotest.test_case "projection" `Quick test_curve_projection;
        Alcotest.test_case "duplicates merged" `Quick test_curve_duplicates_merged;
        Alcotest.test_case "decimation" `Quick test_curve_decimation;
        Alcotest.test_case "errors" `Quick test_curve_errors;
      ] );
    ( "table.tbl_io",
      [
        Alcotest.test_case "roundtrip" `Quick test_tbl_roundtrip;
        Alcotest.test_case "default columns" `Quick test_tbl_default_columns;
        Alcotest.test_case "comments" `Quick test_tbl_comments_and_blanks;
        Alcotest.test_case "ragged rejected" `Quick test_tbl_ragged_rejected;
        Alcotest.test_case "sort_by" `Quick test_tbl_sort_by;
        Alcotest.test_case "file io" `Quick test_tbl_file_io;
      ] );
  ]
