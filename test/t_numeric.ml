(* Tests for the yield_numeric library: vectors, matrices, LU, complex
   solves, root finding. *)

module Vec = Yield_numeric.Vec
module Mat = Yield_numeric.Mat
module Lu = Yield_numeric.Lu
module Cmat = Yield_numeric.Cmat

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1. +. Float.abs b)

let check_float ?(eps = 1e-9) what expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" what expected actual

let test_vec_basics () =
  let v = Vec.init 4 float_of_int in
  check_float "dot" 14. (Vec.dot v v);
  check_float "norm_inf" 3. (Vec.norm_inf v);
  let w = Vec.map (fun x -> 2. *. x) v in
  Vec.axpy ~alpha:(-2.) ~x:v ~y:w;
  check_float "axpy zeroes" 0. (Vec.norm_inf w)

let test_vec_linspace () =
  let v = Vec.linspace 0. 1. 5 in
  Alcotest.(check int) "length" 5 (Vec.dim v);
  check_float "first" 0. v.(0);
  check_float "mid" 0.5 v.(2);
  check_float "last" 1. v.(4);
  let lg = Vec.logspace 1. 1000. 4 in
  check_float "log second" 10. lg.(1);
  Alcotest.check_raises "linspace n=1" (Invalid_argument
    "Vec.linspace: need at least two points") (fun () ->
      ignore (Vec.linspace 0. 1. 1))

let test_mat_mul () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let v = Mat.mul_vec a [| 1.; 1. |] in
  check_float "mul_vec" 3. v.(0)

let test_mat_transpose () =
  let a = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Mat.transpose a in
  Alcotest.(check int) "rows" 3 (Mat.rows t);
  check_float "t21" 6. (Mat.get t 2 1)

let test_lu_solves_identity () =
  let a = Mat.identity 5 in
  let b = Vec.init 5 (fun i -> float_of_int (i + 1)) in
  let x = Lu.solve_system a b in
  check_float "identity solve" 0. (Vec.max_abs_diff x b)

let test_lu_known_system () =
  (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Lu.solve_system a [| 5.; 10. |] in
  check_float "x" 1. x.(0);
  check_float "y" 3. x.(1)

let test_lu_pivoting () =
  (* zero top-left pivot forces a row exchange *)
  let a = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Lu.solve_system a [| 2.; 3. |] in
  check_float "x" 3. x.(0);
  check_float "y" 2. x.(1)

let test_lu_singular () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  match Lu.factor a with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular"

let test_lu_det () =
  let a = Mat.of_arrays [| [| 3.; 1. |]; [| 2.; 5. |] |] in
  check_float "det" 13. (Lu.det (Lu.factor a))

let prop_lu_random_solve =
  QCheck.Test.make ~count:200 ~name:"lu solves random diagonally dominant systems"
    QCheck.(pair (int_bound 1000000) (int_range 1 12))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let a =
        Mat.init n n (fun i j ->
            let v = Random.State.float st 2. -. 1. in
            if i = j then v +. float_of_int n *. 2. else v)
      in
      let x_true = Array.init n (fun _ -> Random.State.float st 4. -. 2.) in
      let b = Mat.mul_vec a x_true in
      let x = Lu.solve_system a b in
      Vec.max_abs_diff x x_true < 1e-8)

let test_cmat_solve () =
  (* (1 + j) x = 2 -> x = 1 - j *)
  let m = Cmat.create 1 1 in
  Cmat.set m 0 0 { Complex.re = 1.; im = 1. };
  let x = Cmat.solve m [| { Complex.re = 2.; im = 0. } |] in
  check_float "re" 1. x.(0).Complex.re;
  check_float "im" (-1.) x.(0).Complex.im

let prop_cmat_random_solve =
  QCheck.Test.make ~count:100 ~name:"complex lu solves random systems"
    QCheck.(pair (int_bound 1000000) (int_range 1 8))
    (fun (seed, n) ->
      let st = Random.State.make [| seed |] in
      let m = Cmat.create n n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let re = Random.State.float st 2. -. 1. in
          let im = Random.State.float st 2. -. 1. in
          let re = if i = j then re +. (3. *. float_of_int n) else re in
          Cmat.set m i j { Complex.re = re; im }
        done
      done;
      let x_true =
        Array.init n (fun _ ->
            {
              Complex.re = Random.State.float st 2. -. 1.;
              im = Random.State.float st 2. -. 1.;
            })
      in
      let b = Cmat.mul_vec m x_true in
      let x = Cmat.solve m b in
      let err = ref 0. in
      for i = 0 to n - 1 do
        err := Float.max !err (Complex.norm (Complex.sub x.(i) x_true.(i)))
      done;
      !err < 1e-8)

let test_cmat_of_real () =
  let g = Mat.of_arrays [| [| 1. |] |] in
  let c = Mat.of_arrays [| [| 2. |] |] in
  let m = Cmat.of_real ~imag_scale:3. g c in
  let z = Cmat.get m 0 0 in
  check_float "re" 1. z.Complex.re;
  check_float "im" 6. z.Complex.im

let suites =
  [
    ( "numeric.vec",
      [
        Alcotest.test_case "basics" `Quick test_vec_basics;
        Alcotest.test_case "linspace/logspace" `Quick test_vec_linspace;
      ] );
    ( "numeric.mat",
      [
        Alcotest.test_case "mul" `Quick test_mat_mul;
        Alcotest.test_case "transpose" `Quick test_mat_transpose;
      ] );
    ( "numeric.lu",
      [
        Alcotest.test_case "identity" `Quick test_lu_solves_identity;
        Alcotest.test_case "known 2x2" `Quick test_lu_known_system;
        Alcotest.test_case "pivoting" `Quick test_lu_pivoting;
        Alcotest.test_case "singular" `Quick test_lu_singular;
        Alcotest.test_case "determinant" `Quick test_lu_det;
        QCheck_alcotest.to_alcotest prop_lu_random_solve;
      ] );
    ( "numeric.cmat",
      [
        Alcotest.test_case "1x1 complex" `Quick test_cmat_solve;
        Alcotest.test_case "of_real" `Quick test_cmat_of_real;
        QCheck_alcotest.to_alcotest prop_cmat_random_solve;
      ] );
  ]
