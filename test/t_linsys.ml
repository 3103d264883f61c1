(* Tests for the solver-agnostic Linsys seam: dense/csr kernel equivalence
   on random sparse systems, bit-exactness of the dense backend against a
   copy of the previous dense kernels, circuit-level dense<->csr
   equivalence (DC, AC, transient), symbolic-cache reuse, and
   byte-identity of the Variation.overrides patching path against full
   circuit rebuilds. *)

module Vec = Yield_numeric.Vec
module Mat = Yield_numeric.Mat
module Lu = Yield_numeric.Lu
module Cmat = Yield_numeric.Cmat
module Csr = Yield_numeric.Csr
module Linsys = Yield_numeric.Linsys

(* ---------- random sparse systems ---------- *)

(* A random n x n sparse system guaranteed structurally nonsingular: a
   random permutation provides the transversal (so some rows have a
   structurally zero diagonal, like MNA branch rows), entries on it are
   dominant, and extra off-diagonal entries exercise fill-in. *)
let random_system st n =
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let entries = Hashtbl.create 16 in
  for j = 0 to n - 1 do
    Hashtbl.replace entries
      ((perm.(j) * n) + j)
      (4. +. (float_of_int n *. 0.5) +. Random.State.float st 2.)
  done;
  let extras = Random.State.int st (2 * n) in
  for _ = 1 to extras do
    let i = Random.State.int st n and j = Random.State.int st n in
    if not (Hashtbl.mem entries ((i * n) + j)) then
      Hashtbl.replace entries ((i * n) + j) (Random.State.float st 2. -. 1.)
  done;
  entries

let pattern_of_entries n entries =
  let b = Linsys.Pattern.builder n in
  Hashtbl.iter (fun key _ -> Linsys.Pattern.add b (key / n) (key mod n)) entries;
  Linsys.Pattern.build b

let assemble_real sys n entries =
  sys.Linsys.reset ();
  Hashtbl.iter
    (fun key v ->
      (* split the value into two adds to exercise accumulation *)
      sys.Linsys.add (key / n) (key mod n) (0.25 *. v);
      sys.Linsys.add (key / n) (key mod n) (0.75 *. v))
    entries

let prop_real_dense_csr_equiv =
  QCheck.Test.make ~count:200
    ~name:"csr real solve matches dense on random sparse systems"
    QCheck.(pair (int_bound 1000000) (int_range 2 14))
    (fun (seed, n) ->
      let st = Random.State.make [| seed; 17 |] in
      let entries = random_system st n in
      let pat = pattern_of_entries n entries in
      let dense = Linsys.real (Linsys.compile Linsys.Dense pat) in
      let csr = Linsys.real (Linsys.compile Linsys.Csr pat) in
      let b = Array.init n (fun _ -> Random.State.float st 4. -. 2.) in
      assemble_real dense n entries;
      assemble_real csr n entries;
      let xd = dense.Linsys.solve b in
      let xc = csr.Linsys.solve b in
      Vec.max_abs_diff xd xc < 1e-9)

let prop_complex_dense_csr_equiv =
  QCheck.Test.make ~count:150
    ~name:"csr complex factor matches dense on random G + jwC systems"
    QCheck.(pair (int_bound 1000000) (int_range 2 10))
    (fun (seed, n) ->
      let st = Random.State.make [| seed; 23 |] in
      let g_entries = random_system st n in
      let c_entries = Hashtbl.create 16 in
      Hashtbl.iter
        (fun key _ ->
          if Random.State.bool st then
            Hashtbl.replace c_entries key (Random.State.float st 1e-9))
        g_entries;
      let b = Linsys.Pattern.builder n in
      Hashtbl.iter (fun key _ -> Linsys.Pattern.add b (key / n) (key mod n))
        g_entries;
      let pat = Linsys.Pattern.build b in
      let assemble cs =
        cs.Linsys.creset ();
        Hashtbl.iter (fun key v -> cs.Linsys.add_g (key / n) (key mod n) v)
          g_entries;
        Hashtbl.iter (fun key v -> cs.Linsys.add_c (key / n) (key mod n) v)
          c_entries
      in
      let dense = Linsys.complex (Linsys.compile Linsys.Dense pat) in
      let csr = Linsys.complex (Linsys.compile Linsys.Csr pat) in
      assemble dense;
      assemble csr;
      let omega = 2. *. Float.pi *. 1e6 in
      let rhs =
        Array.init n (fun _ ->
            {
              Complex.re = Random.State.float st 2. -. 1.;
              im = Random.State.float st 2. -. 1.;
            })
      in
      let xd = (dense.Linsys.factor ~omega) rhs in
      let xc = (csr.Linsys.factor ~omega) rhs in
      let err = ref 0. in
      for i = 0 to n - 1 do
        err := Float.max !err (Complex.norm (Complex.sub xd.(i) xc.(i)))
      done;
      !err < 1e-9)

let test_csr_structural_singular () =
  (* a column with no structural entries cannot be matched *)
  let b = Linsys.Pattern.builder 2 in
  Linsys.Pattern.add b 0 0;
  Linsys.Pattern.add b 1 0;
  let pat = Linsys.Pattern.build b in
  match Linsys.compile Linsys.Csr pat with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular for structurally singular pattern"

let test_csr_numeric_singular () =
  let b = Linsys.Pattern.builder 2 in
  List.iter (fun (i, j) -> Linsys.Pattern.add b i j) [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  let pat = Linsys.Pattern.build b in
  let sys = Linsys.real (Linsys.compile Linsys.Csr pat) in
  sys.Linsys.reset ();
  List.iter
    (fun (i, j, v) -> sys.Linsys.add i j v)
    [ (0, 0, 1.); (0, 1, 2.); (1, 0, 2.); (1, 1, 4.) ];
  match sys.Linsys.solve [| 1.; 2. |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "expected Singular for rank-deficient values"

let test_backend_names () =
  Alcotest.(check (option string))
    "dense" (Some "dense")
    (Option.map Linsys.backend_name (Linsys.backend_of_string " Dense "));
  Alcotest.(check (option string))
    "csr" (Some "csr")
    (Option.map Linsys.backend_name (Linsys.backend_of_string "csr"));
  Alcotest.(check (option string))
    "sparse alias" (Some "csr")
    (Option.map Linsys.backend_name (Linsys.backend_of_string "sparse"));
  Alcotest.(check (option string))
    "unknown" None
    (Option.map Linsys.backend_name (Linsys.backend_of_string "cholesky"))

let test_dense_of_size_matches_mat () =
  let n = 4 in
  let st = Random.State.make [| 42 |] in
  let m = Mat.create n n in
  let sys = Linsys.real (Linsys.dense_of_size n) in
  sys.Linsys.reset ();
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v =
        if i = j then 5. +. Random.State.float st 1.
        else Random.State.float st 2. -. 1.
      in
      Mat.set m i j v;
      sys.Linsys.add i j v
    done
  done;
  let b = Array.init n float_of_int in
  let expect = Lu.solve (Lu.factor m) b in
  let got = sys.Linsys.solve b in
  Alcotest.(check bool) "byte-identical to Mat/Lu" true
    (Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)) expect got)

(* ---------- bit-exact reference for the dense backend ---------- *)

(* The dense kernels as they were before they indexed flat arrays, reused
   buffers and skipped zero columns: Lu.factor/Lu.solve and
   Cmat.of_real/Cmat.solve, over their own matrix type so that nothing
   here depends on the code under test.  The dense backend must reproduce
   them bit for bit. *)
module Ref = struct
  type mat = { rows : int; cols : int; data : float array }

  let create rows cols = { rows; cols; data = Array.make (rows * cols) 0. }
  let get m i j = m.data.((i * m.cols) + j)
  let set m i j x = m.data.((i * m.cols) + j) <- x

  let add_to m i j x =
    let k = (i * m.cols) + j in
    m.data.(k) <- m.data.(k) +. x

  let fill m = Array.fill m.data 0 (Array.length m.data) 0.

  let factor m =
    let n = m.rows in
    let lu = { m with data = Array.copy m.data } in
    let perm = Array.init n (fun i -> i) in
    for k = 0 to n - 1 do
      let best = ref k and best_mag = ref (Float.abs (get lu k k)) in
      for i = k + 1 to n - 1 do
        let mag = Float.abs (get lu i k) in
        if mag > !best_mag then begin
          best := i;
          best_mag := mag
        end
      done;
      if !best_mag < 1e-300 then raise (Lu.Singular k);
      if !best <> k then begin
        let tmp = perm.(k) in
        perm.(k) <- perm.(!best);
        perm.(!best) <- tmp;
        for j = 0 to n - 1 do
          let a = get lu k j and b = get lu !best j in
          set lu k j b;
          set lu !best j a
        done
      end;
      let pivot = get lu k k in
      for i = k + 1 to n - 1 do
        let factor = get lu i k /. pivot in
        set lu i k factor;
        if factor <> 0. then
          for j = k + 1 to n - 1 do
            set lu i j (get lu i j -. (factor *. get lu k j))
          done
      done
    done;
    (lu, perm)

  let solve (lu, perm) b =
    let n = lu.rows in
    let x = Array.init n (fun i -> b.(perm.(i))) in
    for i = 1 to n - 1 do
      let acc = ref x.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (get lu i j *. x.(j))
      done;
      x.(i) <- !acc
    done;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (get lu i j *. x.(j))
      done;
      x.(i) <- !acc /. get lu i i
    done;
    x

  type cmat = { n : int; re : float array; im : float array }

  let of_real ~imag_scale g c =
    let m = { n = g.rows; re = Array.make (g.rows * g.cols) 0.; im = Array.make (g.rows * g.cols) 0. } in
    for i = 0 to g.rows - 1 do
      for j = 0 to g.cols - 1 do
        let k = (i * m.n) + j in
        m.re.(k) <- get g i j;
        m.im.(k) <- imag_scale *. get c i j
      done
    done;
    m

  let csolve m0 b =
    let n = m0.n in
    let idx i j = (i * n) + j in
    let m = { m0 with re = Array.copy m0.re; im = Array.copy m0.im } in
    let mag2 k = (m.re.(k) *. m.re.(k)) +. (m.im.(k) *. m.im.(k)) in
    let xr = Array.init n (fun i -> b.(i).Complex.re) in
    let xi = Array.init n (fun i -> b.(i).Complex.im) in
    let swap_rows a c =
      if a <> c then begin
        for j = 0 to n - 1 do
          let ka = idx a j and kc = idx c j in
          let tr = m.re.(ka) and ti = m.im.(ka) in
          m.re.(ka) <- m.re.(kc);
          m.im.(ka) <- m.im.(kc);
          m.re.(kc) <- tr;
          m.im.(kc) <- ti
        done;
        let tr = xr.(a) and ti = xi.(a) in
        xr.(a) <- xr.(c);
        xi.(a) <- xi.(c);
        xr.(c) <- tr;
        xi.(c) <- ti
      end
    in
    for k = 0 to n - 1 do
      let best = ref k and best_mag = ref (mag2 (idx k k)) in
      for i = k + 1 to n - 1 do
        let mag = mag2 (idx i k) in
        if mag > !best_mag then begin
          best := i;
          best_mag := mag
        end
      done;
      if !best_mag < 1e-280 then raise (Lu.Singular k);
      swap_rows k !best;
      let kp = idx k k in
      let pr = m.re.(kp) and pi = m.im.(kp) in
      let pmag = (pr *. pr) +. (pi *. pi) in
      for i = k + 1 to n - 1 do
        let ki = idx i k in
        let ar = m.re.(ki) and ai = m.im.(ki) in
        if ar <> 0. || ai <> 0. then begin
          let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
          let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
          m.re.(ki) <- 0.;
          m.im.(ki) <- 0.;
          for j = k + 1 to n - 1 do
            let kj = idx k j and ij = idx i j in
            let ur = m.re.(kj) and ui = m.im.(kj) in
            m.re.(ij) <- m.re.(ij) -. ((fr *. ur) -. (fi *. ui));
            m.im.(ij) <- m.im.(ij) -. ((fr *. ui) +. (fi *. ur))
          done;
          xr.(i) <- xr.(i) -. ((fr *. xr.(k)) -. (fi *. xi.(k)));
          xi.(i) <- xi.(i) -. ((fr *. xi.(k)) +. (fi *. xr.(k)))
        end
      done
    done;
    for i = n - 1 downto 0 do
      let sr = ref xr.(i) and si = ref xi.(i) in
      for j = i + 1 to n - 1 do
        let kj = idx i j in
        sr := !sr -. ((m.re.(kj) *. xr.(j)) -. (m.im.(kj) *. xi.(j)));
        si := !si -. ((m.re.(kj) *. xi.(j)) +. (m.im.(kj) *. xr.(j)))
      done;
      let kp = idx i i in
      let pr = m.re.(kp) and pi = m.im.(kp) in
      let pmag = (pr *. pr) +. (pi *. pi) in
      xr.(i) <- ((!sr *. pr) +. (!si *. pi)) /. pmag;
      xi.(i) <- ((!si *. pr) -. (!sr *. pi)) /. pmag
    done;
    Array.init n (fun i -> { Complex.re = xr.(i); im = xi.(i) })

  (* the parent's Dense_backend workspaces over the reference kernels;
     their values are row-major, as the slots of a dense system of the
     same size *)
  let real n =
    let m = create n n in
    {
      Linsys.rn = n;
      owner = Linsys.dense_of_size n;
      values = m.data;
      reset = (fun () -> fill m);
      add = add_to m;
      solve = (fun b -> solve (factor m) b);
    }

  let complex n =
    let g = create n n and c = create n n in
    {
      Linsys.cn = n;
      cowner = Linsys.dense_of_size n;
      gvalues = g.data;
      cvalues = c.data;
      creset =
        (fun () ->
          fill g;
          fill c);
      add_g = add_to g;
      add_c = add_to c;
      factor =
        (fun ~omega ->
          let m = of_real ~imag_scale:omega g c in
          fun rhs -> csolve m rhs);
    }
end

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* a solve's outcome: the solution's bit patterns, or the singular column *)
let outcome f = match f () with x -> Ok x | exception Lu.Singular k -> Error k

let check_real_outcome what expect got =
  match (expect, got) with
  | Ok e, Ok g ->
      Array.iteri
        (fun i e ->
          if not (same_bits e g.(i)) then
            Alcotest.failf "%s: x.(%d) = %h, reference %h" what i g.(i) e)
        e
  | Error k, Error k' when k = k' -> ()
  | _ -> Alcotest.failf "%s: outcome differs from the reference" what

let check_complex_outcome what expect got =
  let parts = Result.map (Array.map (fun z -> [| z.Complex.re; z.Complex.im |])) in
  let flat = Result.map (fun a -> Array.concat (Array.to_list a)) in
  check_real_outcome what (flat (parts expect)) (flat (parts got))

(* Random sparse system entries as a list of (i, j, v) accumulations: a
   transversal of sizeable values (some of them off the diagonal, forcing
   row swaps), random extras, and entries added twice with opposite signs,
   which assemble to an exact zero.

   With [per_row], every row instead gets that many nonzero extras, some
   split over two accumulations: a large system stays sparse, its fill
   grows long rows and long update runs, and no exact zero can carry a
   pivot, so the factorisation runs to the end. *)
let random_adds ?per_row st n =
  let perm = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let adds = ref [] in
  let add i j v = adds := (i, j, v) :: !adds in
  for j = 0 to n - 1 do
    add perm.(j) j (1. +. Random.State.float st 3.)
  done;
  (match per_row with
  | None ->
      for _ = 1 to Random.State.int st (n * n) do
        let i = Random.State.int st n and j = Random.State.int st n in
        match Random.State.int st 4 with
        | 0 ->
            let v = Random.State.float st 2. in
            add i j v;
            add i j (-.v)
        | 1 -> add i j 0.
        | _ -> add i j (Random.State.float st 4. -. 2.)
      done
  | Some k ->
      for i = 0 to n - 1 do
        for _ = 1 to k do
          let j = Random.State.int st n in
          let v = 0.5 +. Random.State.float st 1.5 in
          let v = if Random.State.bool st then v else -.v in
          if Random.State.bool st then add i j v
          else begin
            add i j (0.25 *. v);
            add i j (0.75 *. v)
          end
        done
      done);
  List.rev !adds

(* one NaN or one Inf accumulated somewhere, on top of the finite system *)
let poison st n adds = function
  | `None -> adds
  | `Nan -> adds @ [ (Random.State.int st n, Random.State.int st n, Float.nan) ]
  | `Inf -> adds @ [ (Random.State.int st n, Random.State.int st n, Float.infinity) ]

(* right-hand sides with exact zeros and -0 entries, which the kernels
   must never skip; an all-zero one gives an all-zero solution whose signs
   depend on the sign of every zero met on the way *)
let random_rhs st n =
  let all_zero = Random.State.int st 3 = 0 in
  Array.init n (fun _ ->
      match Random.State.int st 4 with
      | 0 -> 0.
      | 1 -> -0.
      | _ -> if all_zero then 0. else Random.State.float st 4. -. 2.)

let poisons = [ `None; `Nan; `Inf ]

let test_dense_real_bit_exact () =
  for seed = 1 to 300 do
    let st = Random.State.make [| seed; 31 |] in
    let n = 1 + Random.State.int st 12 in
    List.iter
      (fun p ->
        let adds = poison st n (random_adds st n) p in
        let dense = Linsys.real (Linsys.dense_of_size n) in
        let reference = Ref.real n in
        (* a second assembly into the same workspace must not see the
           first one's factorisation *)
        for round = 1 to 2 do
          let adds = if round = 1 then adds else List.rev adds in
          List.iter
            (fun sys ->
              sys.Linsys.reset ();
              List.iter (fun (i, j, v) -> sys.Linsys.add i j v) adds)
            [ dense; reference ];
          for r = 1 to 3 do
            let b = random_rhs st n in
            check_real_outcome
              (Printf.sprintf "seed %d n %d round %d rhs %d" seed n round r)
              (outcome (fun () -> reference.Linsys.solve b))
              (outcome (fun () -> dense.Linsys.solve b))
          done
        done)
      poisons
  done

let test_public_real_bit_exact () =
  (* Lu.factor on arbitrary matrices, -0 entries included, with several
     right-hand sides per factorisation *)
  for seed = 1 to 200 do
    let st = Random.State.make [| seed; 37 |] in
    let n = 1 + Random.State.int st 10 in
    let adds = poison st n (random_adds st n) (List.nth poisons (seed mod 3)) in
    let m = Mat.create n n and r = Ref.create n n in
    List.iter
      (fun (i, j, v) ->
        Mat.add_to m i j v;
        Ref.add_to r i j v)
      adds;
    if seed mod 2 = 0 then
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Mat.get m i j = 0. && Random.State.bool st then begin
            Mat.set m i j (-0.);
            Ref.set r i j (-0.)
          end
        done
      done;
    match (outcome (fun () -> Ref.factor r), outcome (fun () -> Lu.factor m)) with
    | Ok fr, Ok f ->
        for rhs = 1 to 3 do
          let b = random_rhs st n in
          let what = Printf.sprintf "seed %d n %d rhs %d" seed n rhs in
          let expect = Ok (Ref.solve fr b) in
          check_real_outcome what expect (Ok (Lu.solve f b));
          let b' = Array.copy b in
          Lu.solve_in_place f b';
          check_real_outcome (what ^ " in place") expect (Ok b')
        done
    | Error k, Error k' when k = k' -> ()
    | _ -> Alcotest.failf "seed %d: factor outcome differs from the reference" seed
  done

(* omegas beyond the sweep's: 0 and negative scales put -0 into omega *. C,
   5e-324 underflows its products to -0, and Inf / NaN poison every entry *)
let omegas =
  [ 2. *. Float.pi *. 1e6; 1.; 2. *. Float.pi *. 1e9; 0.; -3.; 5e-324; Float.infinity; Float.nan ]

let random_complex_rhs st n =
  let re = random_rhs st n and im = random_rhs st n in
  Array.init n (fun i -> { Complex.re = re.(i); im = im.(i) })

let test_dense_complex_bit_exact () =
  for seed = 1 to 150 do
    let st = Random.State.make [| seed; 41 |] in
    let n = 1 + Random.State.int st 10 in
    List.iter
      (fun p ->
        let g_adds = poison st n (random_adds st n) p in
        let c_adds =
          List.filter_map
            (fun (i, j, v) ->
              if Random.State.bool st then Some (i, j, v *. 1e-9) else None)
            (random_adds st n)
        in
        let dense = Linsys.complex (Linsys.dense_of_size n) in
        let reference = Ref.complex n in
        List.iter
          (fun cs ->
            cs.Linsys.creset ();
            List.iter (fun (i, j, v) -> cs.Linsys.add_g i j v) g_adds;
            List.iter (fun (i, j, v) -> cs.Linsys.add_c i j v) c_adds)
          [ dense; reference ];
        List.iter
          (fun omega ->
            let sd = dense.Linsys.factor ~omega in
            let sr = reference.Linsys.factor ~omega in
            for r = 1 to 3 do
              let b = random_complex_rhs st n in
              check_complex_outcome
                (Printf.sprintf "seed %d n %d omega %g rhs %d" seed n omega r)
                (outcome (fun () -> sr b))
                (outcome (fun () -> sd b))
            done)
          omegas)
      poisons
  done

let test_public_complex_bit_exact () =
  (* Cmat.of_real + Cmat.solve on arbitrary matrices, -0 entries included *)
  for seed = 1 to 150 do
    let st = Random.State.make [| seed; 43 |] in
    let n = 1 + Random.State.int st 9 in
    let g = Mat.create n n and c = Mat.create n n in
    let rg = Ref.create n n and rc = Ref.create n n in
    List.iter
      (fun (i, j, v) ->
        Mat.add_to g i j v;
        Ref.add_to rg i j v)
      (poison st n (random_adds st n) (List.nth poisons (seed mod 3)));
    List.iter
      (fun (i, j, v) ->
        Mat.add_to c i j (v *. 1e-9);
        Ref.add_to rc i j (v *. 1e-9))
      (random_adds st n);
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if Mat.get g i j = 0. && Random.State.int st 3 = 0 then begin
          Mat.set g i j (-0.);
          Ref.set rg i j (-0.)
        end
      done
    done;
    List.iter
      (fun omega ->
        let m = Cmat.of_real ~imag_scale:omega g c in
        let rm = Ref.of_real ~imag_scale:omega rg rc in
        for r = 1 to 2 do
          let b = random_complex_rhs st n in
          check_complex_outcome
            (Printf.sprintf "seed %d n %d omega %g rhs %d" seed n omega r)
            (outcome (fun () -> Ref.csolve rm b))
            (outcome (fun () -> Cmat.solve m b))
        done)
      omegas
  done

(* Hand-built systems where skipping a zero column would flip the sign of
   a -0 entry and, with zero right-hand sides, of a solution entry: a -0
   in the matrix passed to Lu.factor, and -0 entries that omega *. C
   creates when a product underflows.  Every right-hand side over
   {-1, -0, +0, 1}^3 is tried. *)
let signed_zero_rhs =
  let v = [| -1.; -0.; 0.; 1. |] in
  List.init 64 (fun k -> [| v.(k land 3); v.((k lsr 2) land 3); v.(k lsr 4) |])

let test_signed_zero_fixtures () =
  let rows = [| [| 1.; 0.; 0. |]; [| -1.; -0.; 1. |]; [| 0.; 1.; 0. |] |] in
  let m = Mat.of_arrays rows and r = Ref.create 3 3 in
  Array.iteri (fun i row -> Array.iteri (fun j v -> Ref.set r i j v) row) rows;
  let f = Lu.factor m and fr = Ref.factor r in
  List.iter
    (fun b -> check_real_outcome "Lu.factor with a -0 entry" (Ok (Ref.solve fr b)) (Ok (Lu.solve f b)))
    signed_zero_rhs;
  let g = [ (0, 0, 1.); (1, 0, -1.); (1, 1, 2.); (2, 2, 1.) ] in
  let c = [ (0, 0, -0.3); (1, 0, -0.3); (1, 2, -0.3) ] in
  let dense = Linsys.complex (Linsys.dense_of_size 3) and reference = Ref.complex 3 in
  List.iter
    (fun cs ->
      cs.Linsys.creset ();
      List.iter (fun (i, j, v) -> cs.Linsys.add_g i j v) g;
      List.iter (fun (i, j, v) -> cs.Linsys.add_c i j v) c)
    [ dense; reference ];
  let omega = 5e-324 in
  let sd = dense.Linsys.factor ~omega and sr = reference.Linsys.factor ~omega in
  List.iter
    (fun re ->
      List.iter
        (fun im ->
          let b = Array.init 3 (fun i -> { Complex.re = re.(i); im = im.(i) }) in
          check_complex_outcome "omega *. C underflowing to -0"
            (outcome (fun () -> sr b))
            (outcome (fun () -> sd b)))
        signed_zero_rhs)
    signed_zero_rhs

(* ---------- bit-exact reference for the csr kernels ---------- *)

(* Csr against Csr_ref, the previous csr kernels (Hashtbl slot lookup,
   fresh scratch per call), on one pattern: the first [strong] entries of
   [adds] are strong pattern entries, a random part of the rest weak, as
   capacitor-only MNA positions are. *)
let csr_pair st n ~strong adds =
  let b = Linsys.Pattern.builder n in
  List.iteri
    (fun k (i, j, _) ->
      if k < strong || Random.State.int st 3 > 0 then Linsys.Pattern.add b i j
      else Linsys.Pattern.add_weak b i j)
    adds;
  let p = Linsys.Pattern.build b in
  let rows = Linsys.Pattern.rows p and strong_rows = Linsys.Pattern.strong_rows p in
  (Csr.analyse ~strong_rows ~n rows, Csr_ref.analyse ~strong_rows ~n rows)

(* [poison] on an entry of [adds], which keeps it inside a csr pattern *)
let poison_entry st adds p =
  let i, j, _ = List.nth adds (Random.State.int st (List.length adds)) in
  match p with
  | `None -> adds
  | `Nan -> adds @ [ (i, j, Float.nan) ]
  | `Inf -> adds @ [ (i, j, Float.infinity) ]

(* seeds past the small-system range draw n up to 40 with two to five
   entries in every row *)
let csr_case st seed ~small_seeds ~small_n =
  if seed <= small_seeds then
    let n = 1 + Random.State.int st small_n in
    (n, random_adds st n)
  else
    let n = small_n + 1 + Random.State.int st (40 - small_n) in
    (n, random_adds ~per_row:(2 + Random.State.int st 4) st n)

let test_csr_real_bit_exact () =
  for seed = 1 to 360 do
    let st = Random.State.make [| seed; 47 |] in
    let n, adds = csr_case st seed ~small_seeds:300 ~small_n:12 in
    let sym, rsym = csr_pair st n ~strong:n adds in
    let w = Csr.rwork sym and rw = Csr_ref.rwork rsym in
    (* several assemblies in a row on one workspace: none may see an
       earlier one's factors or scratch *)
    List.iteri
      (fun round p ->
        let adds = poison_entry st (if round mod 2 = 0 then adds else List.rev adds) p in
        Csr.rreset w;
        Csr_ref.rreset rw;
        List.iter
          (fun (i, j, v) ->
            Csr.radd w i j v;
            Csr_ref.radd rw i j v)
          adds;
        for r = 1 to 3 do
          let b = random_rhs st n in
          check_real_outcome
            (Printf.sprintf "seed %d n %d round %d rhs %d" seed n round r)
            (outcome (fun () -> Csr_ref.rsolve rw b))
            (outcome (fun () -> Csr.rsolve w b))
        done)
      (poisons @ [ `None ])
  done

let test_csr_complex_bit_exact () =
  for seed = 1 to 190 do
    let st = Random.State.make [| seed; 53 |] in
    let n, g_adds = csr_case st seed ~small_seeds:150 ~small_n:10 in
    let c_adds =
      List.filter_map
        (fun (i, j, v) -> if Random.State.bool st then Some (i, j, v *. 1e-9) else None)
        (if seed <= 150 then random_adds st n else random_adds ~per_row:2 st n)
    in
    let sym, rsym = csr_pair st n ~strong:n (g_adds @ c_adds) in
    let w = Csr.cwork sym and rw = Csr_ref.cwork rsym in
    List.iter
      (fun p ->
        Csr.creset w;
        Csr_ref.creset rw;
        List.iter
          (fun (i, j, v) ->
            Csr.cadd_g w i j v;
            Csr_ref.cadd_g rw i j v)
          (poison_entry st g_adds p);
        List.iter
          (fun (i, j, v) ->
            Csr.cadd_c w i j v;
            Csr_ref.cadd_c rw i j v)
          c_adds;
        (* one factorisation per omega on the same workspace, several
           right-hand sides per factorisation *)
        List.iter
          (fun omega ->
            let solve = outcome (fun () -> Csr.cfactor w ~omega) in
            let solve_ref = outcome (fun () -> Csr_ref.cfactor rw ~omega) in
            for r = 1 to 3 do
              let b = random_complex_rhs st n in
              let run = function Ok f -> outcome (fun () -> f b) | Error k -> Error k in
              check_complex_outcome
                (Printf.sprintf "seed %d n %d omega %g rhs %d" seed n omega r)
                (run solve_ref) (run solve)
            done)
          omegas)
      poisons
  done

(* A pivot that cancels to an exact zero halfway through the factorisation
   (rows 0 and 1 are proportional), then the same workspace refactors a
   regular system: the abandoned factorisation must leave nothing behind. *)
let test_csr_singular_then_regular () =
  let n = 3 in
  let full = List.concat (List.init n (fun i -> List.init n (fun j -> (i, j, 0.)))) in
  let st = Random.State.make [| 59 |] in
  let sym, rsym = csr_pair st n ~strong:(n * n) full in
  let singular = [ (0, 0, 1.); (0, 1, 2.); (1, 0, 2.); (1, 1, 4.); (2, 2, 1.) ] in
  let regular =
    [ (0, 0, 4.); (0, 1, 1.); (0, 2, -1.); (1, 0, 2.); (1, 1, 5.); (2, 1, 1.); (2, 2, 3.) ]
  in
  let w = Csr.rwork sym and rw = Csr_ref.rwork rsym in
  let cw = Csr.cwork sym and crw = Csr_ref.cwork rsym in
  List.iter
    (fun (what, adds, expect_singular) ->
      Csr.rreset w;
      Csr_ref.rreset rw;
      Csr.creset cw;
      Csr_ref.creset crw;
      List.iter
        (fun (i, j, v) ->
          Csr.radd w i j v;
          Csr_ref.radd rw i j v;
          Csr.cadd_g cw i j v;
          Csr_ref.cadd_g crw i j v;
          Csr.cadd_c cw i j (v *. 1e-9);
          Csr_ref.cadd_c crw i j (v *. 1e-9))
        adds;
      let b = [| 1.; -0.; 2. |] in
      let got = outcome (fun () -> Csr.rsolve w b) in
      check_real_outcome what (outcome (fun () -> Csr_ref.rsolve rw b)) got;
      (match got with
      | Error k when expect_singular && k > 0 -> ()
      | Ok _ when not expect_singular -> ()
      | _ -> Alcotest.failf "%s: unexpected real outcome" what);
      let cb = Array.map (fun re -> { Complex.re; im = -.re }) b in
      let solve w f = outcome (fun () -> f w ~omega:1e6 cb) in
      let cgot = solve cw Csr.cfactor in
      check_complex_outcome (what ^ " complex") (solve crw Csr_ref.cfactor) cgot;
      match cgot with
      | Error k when expect_singular && k > 0 -> ()
      | Ok _ when not expect_singular -> ()
      | _ -> Alcotest.failf "%s: unexpected complex outcome" what)
    [ ("regular", regular, false); ("singular", singular, true); ("regular again", regular, false) ]

(* The scratch lives in the workspaces: a solve allocates its result, and a
   factorisation its solver closure, nothing else.  A tridiagonal pattern
   keeps every buffer small enough for the minor heap, where an
   allocation would show. *)
let test_csr_solves_allocate_only_results () =
  let n = 40 in
  let entries =
    List.concat
      (List.init n (fun i ->
           List.filter_map
             (fun j ->
               if j < 0 || j >= n then None
               else Some (i, j, if i = j then 4. else -1.))
             [ i - 1; i; i + 1 ]))
  in
  let st = Random.State.make [| 61 |] in
  let sym, _ = csr_pair st n ~strong:(List.length entries) entries in
  let w = Csr.rwork sym and cw = Csr.cwork sym in
  List.iter
    (fun (i, j, v) ->
      Csr.radd w i j v;
      Csr.cadd_g cw i j v;
      Csr.cadd_c cw i j (v *. 1e-9))
    entries;
  let b = Array.init n float_of_int in
  let cb = Array.map (fun re -> { Complex.re; im = 1. }) b in
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  (* results: a float array of n, and an array of n boxed complex
     numbers; a closure takes at most 8 words (header, code pointer,
     closure info, the captured workspace and omega, and some room for
     the compiler's layout), while one scratch vector takes n + 1 = 41 *)
  let real_result = float_of_int (n + 1) in
  let complex_result = float_of_int (n + 1 + (3 * n)) in
  let closure = 8. in
  for _ = 1 to 3 do
    let rw = words (fun () -> Csr.rsolve w b) in
    if rw > real_result then
      Alcotest.failf "rsolve allocated %g words, its result is %g" rw real_result;
    let fw = words (fun () -> Csr.cfactor cw ~omega:1e6) in
    if fw > closure then
      Alcotest.failf "cfactor allocated %g words, a closure at most %g" fw closure;
    let solve = Csr.cfactor cw ~omega:1e6 in
    let sw = words (fun () -> solve cb) in
    if sw > complex_result then
      Alcotest.failf "a cfactor solve allocated %g words, its result is %g" sw
        complex_result
  done

(* A stamp outside [0, n) must raise on either backend, never alias the
   entry that i * n + j happens to name. *)
let test_out_of_range_stamps () =
  let n = 3 in
  let b = Linsys.Pattern.builder n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Linsys.Pattern.add b i j
    done
  done;
  let pat = Linsys.Pattern.build b in
  let bad = [ (0, -1); (1, -1); (0, n); (1, n); (0, n + 1); (n, 0); (n, n - 1); (-1, 0) ] in
  List.iter
    (fun backend ->
      let c = Linsys.compile backend pat in
      let rs = Linsys.real c and cs = Linsys.complex c in
      let stamps =
        [ ("add", rs.Linsys.add); ("add_g", cs.Linsys.add_g); ("add_c", cs.Linsys.add_c) ]
      in
      List.iter
        (fun (what, add) ->
          List.iter
            (fun (i, j) ->
              match add i j 1. with
              | exception Invalid_argument _ -> ()
              | () ->
                  Alcotest.failf "%s %s (%d, %d) accepted" (Linsys.name c) what i j)
            bad)
        stamps;
      (* the refused stamps changed nothing: the identity still solves to
         the right-hand side *)
      rs.Linsys.reset ();
      for i = 0 to n - 1 do
        rs.Linsys.add i i 1.
      done;
      List.iter
        (fun (i, j) -> try rs.Linsys.add i j 1. with Invalid_argument _ -> ())
        bad;
      let x = rs.Linsys.solve [| 1.; 2.; 3. |] in
      Alcotest.(check (array (float 0.))) (Linsys.name c ^ " solve") [| 1.; 2.; 3. |] x)
    [ Linsys.Dense; Linsys.Csr ]

(* ---------- circuit-level dense <-> csr equivalence ---------- *)

module Circuit = Yield_spice.Circuit
module Device = Yield_spice.Device
module Mna = Yield_spice.Mna
module Dcop = Yield_spice.Dcop
module Ac = Yield_spice.Ac
module Tran = Yield_spice.Tran
module Rng = Yield_stats.Rng
module Variation = Yield_process.Variation
module Gtb = Yield_circuits.Testbench

(* fresh functor instantiations so the per-functor session caches start
   empty whatever ran before in the suite *)
module Ota_tb = Gtb.Make (Yield_circuits.Ota)
module Miller_tb = Gtb.Make (Yield_circuits.Miller)

(* documented tolerance of the csr backend against dense (README): the two
   pivot orders differ, and one iterative-refinement step brings csr back
   to well below simulator tolerances on these well-conditioned systems *)
let csr_tol = 1e-6

let test_circuit_dc_ac_dense_csr () =
  let circuit, _ = Miller_tb.build Yield_circuits.Miller.default_params in
  let sys_d = Mna.sys ~backend:Linsys.Dense circuit in
  let sys_c = Mna.sys ~backend:Linsys.Csr circuit in
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  (* scaled-down variation keeps every sample convergent (a full-sigma
     draw can legitimately push the bias point past convergence, which
     would test the retry chain rather than the solver seam) *)
  let spec = Variation.scale_spec 0.3 Variation.default_spec in
  for seed = 1 to 5 do
    (* a different variation sample per round randomises the matrix values
       while keeping the (cached) topology fixed *)
    let models = Variation.overrides spec (Rng.create seed) circuit in
    match
      ( Dcop.solve_with_retry ~sys:sys_d ~models circuit,
        Dcop.solve_with_retry ~sys:sys_c ~models circuit )
    with
    | Ok od, Ok oc ->
        let dv = Vec.max_abs_diff od.Dcop.x oc.Dcop.x in
        if dv > csr_tol then
          Alcotest.failf "seed %d: DC voltages differ by %g" seed dv;
        let bd = Ac.transfer_by_name ~sys:sys_d circuit od ~out:"out" ~freqs in
        let bc = Ac.transfer_by_name ~sys:sys_c circuit oc ~out:"out" ~freqs in
        Array.iteri
          (fun i rd ->
            let rc = bc.Ac.response.(i) in
            (* relative: the response spans many orders of magnitude *)
            let err =
              Complex.norm (Complex.sub rd rc)
              /. Float.max 1e-30 (Complex.norm rd)
            in
            if err > csr_tol then
              Alcotest.failf "seed %d freq %g: AC response differs by %g"
                seed bd.Ac.freqs.(i) err)
          bd.Ac.response
    | (Error _ as e), _ | _, (Error _ as e) ->
        (match e with
        | Error err ->
            Alcotest.failf "seed %d: DC solve failed: %s" seed
              (Dcop.error_to_string err)
        | Ok _ -> assert false)
  done

(* The workspaces under test and their references over one circuit's MNA
   system: the workspaces of the circuit's [Mna.sys] of [backend], and
   either the Ref kernels (dense) or Csr_ref on the circuit's own pattern
   (the one every csr sample factors).  Csr_ref orders and fills a pattern
   as Csr does, so its value slots are those of a csr system compiled from
   the same pattern. *)
let circuit_workspaces backend sys circuit layout =
  let n = Mna.size layout in
  let tested = (Mna.sys_real sys, Mna.sys_complex sys) in
  match backend with
  | Linsys.Dense -> (tested, (Ref.real n, Ref.complex n))
  | Linsys.Csr ->
      let p = Mna.pattern circuit layout in
      let rsym =
        Csr_ref.analyse ~strong_rows:(Linsys.Pattern.strong_rows p) ~n
          (Linsys.Pattern.rows p)
      in
      let rw = Csr_ref.rwork rsym and cw = Csr_ref.cwork rsym in
      let owner = Linsys.compile Linsys.Csr p in
      ( tested,
        ( {
            Linsys.rn = n;
            owner;
            values = rw.Csr_ref.values;
            reset = (fun () -> Csr_ref.rreset rw);
            add = Csr_ref.radd rw;
            solve = Csr_ref.rsolve rw;
          },
          {
            Linsys.cn = n;
            cowner = owner;
            gvalues = cw.Csr_ref.gv;
            cvalues = cw.Csr_ref.cv;
            creset = (fun () -> Csr_ref.creset cw);
            add_g = Csr_ref.cadd_g cw;
            add_c = Csr_ref.cadd_c cw;
            factor = Csr_ref.cfactor cw;
          } ) )

(* The DC Newton systems a damped Newton run visits from the initial guess,
   and the AC pencil at every sweep frequency, each assembled by Mna's
   plan replay into a workspace of [backend] and by the reference
   assembly (Mna_ref, through [add]) into its reference workspace.  Every
   real system is solved for its own right-hand side and two random ones;
   every pencil is factored once and solved for its own right-hand side
   and two random ones. *)
let check_circuit_bit_exact backend name circuit =
  let sys = Mna.sys ~backend circuit in
  let layout = Mna.sys_layout sys in
  let n = Mna.size layout in
  let (rs, cs), (reference, cref) =
    circuit_workspaces backend sys circuit layout
  in
  let name = Linsys.backend_name backend ^ " " ^ name in
  let st = Random.State.make [| 67 |] in
  let x = Array.make n 0. in
  for it = 1 to 40 do
    let rhs = Mna.assemble_dc_into rs circuit layout ~x ~source_scale:1. ~gmin:1e-12 in
    let rhs' =
      Mna_ref.assemble_dc_into reference circuit layout ~x ~source_scale:1.
        ~gmin:1e-12
    in
    let xd = outcome (fun () -> rs.Linsys.solve rhs) in
    check_real_outcome
      (Printf.sprintf "%s newton %d" name it)
      (outcome (fun () -> reference.Linsys.solve rhs'))
      xd;
    for r = 1 to 2 do
      let b = random_rhs st n in
      check_real_outcome
        (Printf.sprintf "%s newton %d rhs %d" name it r)
        (outcome (fun () -> reference.Linsys.solve b))
        (outcome (fun () -> rs.Linsys.solve b))
    done;
    match xd with
    | Ok x_new ->
        Array.iteri
          (fun k xk ->
            let dk = xk -. x.(k) in
            x.(k) <-
              (x.(k) +. if k < Mna.n_nodes layout then Float.max (-0.5) (Float.min 0.5 dk) else dk))
          x_new
    | Error _ -> Alcotest.failf "%s: singular Newton system" name
  done;
  let op =
    match Dcop.solve circuit with
    | Ok op -> op
    | Error e -> Alcotest.failf "%s: %s" name (Dcop.error_to_string e)
  in
  let ops = Dcop.mos_op op in
  let rhs = Mna.assemble_ac_into cs circuit layout ~ops in
  let rhs' = Mna_ref.assemble_ac_into cref circuit layout ~ops in
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  Alcotest.(check int) "sweep points" 81 (Array.length freqs);
  Array.iter
    (fun freq ->
      let omega = 2. *. Float.pi *. freq in
      let solve = outcome (fun () -> cs.Linsys.factor ~omega) in
      let solve_ref = outcome (fun () -> cref.Linsys.factor ~omega) in
      let run f b = match f with Ok f -> outcome (fun () -> f b) | Error k -> Error k in
      let random = List.init 2 (fun _ -> random_complex_rhs st n) in
      List.iteri
        (fun r (b, b') ->
          check_complex_outcome
            (Printf.sprintf "%s ac %g Hz rhs %d" name freq r)
            (run solve_ref b') (run solve b))
        ((rhs, rhs') :: List.map (fun b -> (b, b)) random))
    freqs

let check_circuits_bit_exact backend =
  check_circuit_bit_exact backend "ota"
    (fst (Ota_tb.build Yield_circuits.Ota.default_params));
  check_circuit_bit_exact backend "miller"
    (fst (Miller_tb.build Yield_circuits.Miller.default_params))

let test_complex_refactor_bit_exact () =
  (* Noise.output_noise's pattern: factor, several solves, factor again at
     another frequency on the same workspace, several more solves *)
  let circuit, _ = Miller_tb.build Yield_circuits.Miller.default_params in
  let op =
    match Dcop.solve circuit with
    | Ok op -> op
    | Error e -> Alcotest.fail (Dcop.error_to_string e)
  in
  let sys = Mna.sys circuit in
  let layout = Mna.sys_layout sys in
  let n = Mna.size layout in
  let cs = Mna.sys_complex sys in
  let cref = Ref.complex n in
  ignore (Mna.assemble_ac_into cs circuit layout ~ops:(Dcop.mos_op op));
  ignore (Mna_ref.assemble_ac_into cref circuit layout ~ops:(Dcop.mos_op op));
  let unit_rhs k =
    Array.init n (fun i -> if i = k then { Complex.re = 1.; im = 0. } else Complex.zero)
  in
  List.iter
    (fun freq ->
      let omega = 2. *. Float.pi *. freq in
      let solve = cs.Linsys.factor ~omega in
      let solve_ref = cref.Linsys.factor ~omega in
      for k = 0 to n - 1 do
        check_complex_outcome
          (Printf.sprintf "%g Hz, rhs e%d" freq k)
          (outcome (fun () -> solve_ref (unit_rhs k)))
          (outcome (fun () -> solve (unit_rhs k)))
      done)
    [ 1e3; 1e7; 1e3 ]

let test_circuit_tran_dense_csr () =
  (* an RC low-pass driven by a pulse plus a MOS follower: exercises the
     transient companion stamps and the per-step Newton solve through both
     backends *)
  let build () =
    let c = Circuit.create () in
    Circuit.add_vsource c ~name:"VDD" "vdd" "0" 3.3;
    let wave =
      Device.Pulse
        {
          v1 = 0.5;
          v2 = 1.5;
          delay = 1e-7;
          rise = 1e-8;
          fall = 1e-8;
          width = 1e-6;
          period = 0.;
        }
    in
    Circuit.add_vsource c ~name:"VIN" ~wave "in" "0" 0.5;
    Circuit.add_resistor c ~name:"R1" "in" "g" 1e3;
    Circuit.add_capacitor c ~name:"C1" "g" "0" 1e-12;
    Circuit.add_mosfet c ~name:"M1" ~d:"vdd" ~g:"g" ~s:"s" ~b:"0"
      ~model:Yield_process.Tech.c35.Yield_process.Tech.nmos ~w:10e-6 ~l:1e-6;
    Circuit.add_resistor c ~name:"RS" "s" "0" 10e3;
    c
  in
  let circuit = build () in
  let options = Tran.options ~t_stop:5e-7 ~dt:5e-9 () in
  let run backend =
    match Tran.run ~sys:(Mna.sys ~backend circuit) options circuit with
    | Ok r -> r
    | Error e -> Alcotest.failf "tran (%s): %s" (Linsys.backend_name backend) (Tran.error_to_string e)
  in
  let rd = run Linsys.Dense in
  let rc = run Linsys.Csr in
  let vd = Tran.voltage_by_name rd circuit "s" in
  let vc = Tran.voltage_by_name rc circuit "s" in
  Alcotest.(check int) "points" (Array.length vd) (Array.length vc);
  Array.iteri
    (fun i a ->
      if Float.abs (a -. vc.(i)) > csr_tol then
        Alcotest.failf "t=%g: dense %g vs csr %g" rd.Tran.times.(i) a vc.(i))
    vd

let test_session_pattern_cache () =
  let params i =
    let p = Yield_circuits.Ota.default_params in
    { p with Yield_circuits.Ota.w1 = p.Yield_circuits.Ota.w1 *. (1. +. (0.02 *. float_of_int i)) }
  in
  (* first sessions may compile (one pattern per backend)... *)
  let s_dense = Ota_tb.session (params 0) in
  let s_csr = Ota_tb.session ~solver:Linsys.Csr (params 0) in
  let builds0 = Linsys.Pattern.builds () in
  (* ...every further session of the same topology must hit the cache *)
  let sessions =
    List.init 4 (fun i ->
        [
          Ota_tb.session (params (i + 1));
          Ota_tb.session ~solver:Linsys.Csr (params (i + 1));
        ])
  in
  Alcotest.(check int) "no pattern rebuilds across sessions" builds0
    (Linsys.Pattern.builds ());
  Alcotest.(check string) "dense name" "dense"
    (Ota_tb.session_solver_name s_dense);
  Alcotest.(check string) "csr name" "csr" (Ota_tb.session_solver_name s_csr);
  List.iter
    (List.iter (fun s ->
         Alcotest.(check bool) "shared compiled session" true
           (Ota_tb.session_sys s == Ota_tb.session_sys s_dense
           || Ota_tb.session_sys s == Ota_tb.session_sys s_csr)))
    sessions

(* An independent reference for the session paths: DC + AC of a circuit
   in a freshly built dense Mna.sys (no functor cache, no overrides) *)
let fresh_sys_perf circuit =
  let sys = Mna.sys circuit in
  match Dcop.solve_with_retry ~sys circuit with
  | Error _ -> None
  | Ok op ->
      Gtb.perf_of_bode Gtb.default_conditions
        (Ac.transfer_by_name ~sys circuit op ~out:"out"
           ~freqs:(Gtb.freqs_of Gtb.default_conditions))

let check_perf_bits name p_rebuild p_session =
  match (p_rebuild, p_session) with
  | None, None -> ()
  | Some (a : Gtb.perf), Some (b : Gtb.perf) ->
      let bits = Int64.bits_of_float in
      let field fname x y =
        Alcotest.(check int64) (name ^ " " ^ fname) (bits x) (bits y)
      in
      field "gain_db" a.Gtb.gain_db b.Gtb.gain_db;
      field "phase_margin_deg" a.Gtb.phase_margin_deg b.Gtb.phase_margin_deg;
      field "unity_gain_hz" a.Gtb.unity_gain_hz b.Gtb.unity_gain_hz;
      field "f3db_hz" a.Gtb.f3db_hz b.Gtb.f3db_hz;
      field "rout_est" a.Gtb.rout_est b.Gtb.rout_est
  | Some _, None | None, Some _ ->
      Alcotest.fail (name ^ ": rebuild and session paths disagree on failure")

(* byte-identity of the batch patching path against an independent
   rebuild: the same rng state drives Variation.perturb_circuit, whose
   circuit solves in a fresh sys, and the session sample *)
let test_ota_overrides_bit_identical () =
  let params = Yield_circuits.Ota.default_params in
  let session = Ota_tb.session params in
  let circuit, _ = Ota_tb.build params in
  for seed = 11 to 15 do
    let rebuild =
      fresh_sys_perf
        (Variation.perturb_circuit Variation.default_spec (Rng.create seed)
           circuit)
    in
    let patched =
      Ota_tb.evaluate_in_session session ~spec:Variation.default_spec
        ~rng:(Rng.create seed)
    in
    check_perf_bits (Printf.sprintf "ota seed %d" seed) rebuild patched
  done

let test_miller_overrides_bit_identical () =
  let params = Yield_circuits.Miller.default_params in
  let session = Miller_tb.session params in
  let circuit, _ = Miller_tb.build params in
  for seed = 11 to 15 do
    let rebuild =
      fresh_sys_perf
        (Variation.perturb_circuit Variation.default_spec (Rng.create seed)
           circuit)
    in
    let patched =
      Miller_tb.evaluate_in_session session ~spec:Variation.default_spec
        ~rng:(Rng.create seed)
    in
    check_perf_bits (Printf.sprintf "miller seed %d" seed) rebuild patched
  done

(* the optimiser's objective solves in the functor's cached sys; it must
   match a fresh sys bit for bit across sizings, whichever sizing built the
   cached one *)
let test_evaluate_cached_sys_bit_identical () =
  let module Ota = Yield_circuits.Ota in
  let module Miller = Yield_circuits.Miller in
  (* widths scaled by [k], lengths kept *)
  let scaled arr k =
    Array.mapi (fun i x -> if i mod 2 = 0 then x *. k else x) arr
  in
  List.iter
    (fun k ->
      let ota = Ota.params_of_array (scaled (Ota.params_to_array Ota.default_params) k) in
      let fresh = fresh_sys_perf (fst (Ota_tb.build ota)) in
      if fresh = None then Alcotest.failf "ota x%g: no reference perf" k;
      check_perf_bits (Printf.sprintf "ota x%g" k) fresh (Ota_tb.evaluate ota);
      let miller =
        Miller.params_of_array
          (scaled (Miller.params_to_array Miller.default_params) k)
      in
      let fresh = fresh_sys_perf (fst (Miller_tb.build miller)) in
      if fresh = None then Alcotest.failf "miller x%g: no reference perf" k;
      check_perf_bits
        (Printf.sprintf "miller x%g" k)
        fresh (Miller_tb.evaluate miller))
    [ 1.; 0.6; 1.7; 2.5 ]

let suites =
  [
    ( "linsys.kernel",
      [
        QCheck_alcotest.to_alcotest prop_real_dense_csr_equiv;
        QCheck_alcotest.to_alcotest prop_complex_dense_csr_equiv;
        Alcotest.test_case "structural singular" `Quick
          test_csr_structural_singular;
        Alcotest.test_case "numeric singular" `Quick test_csr_numeric_singular;
        Alcotest.test_case "backend names" `Quick test_backend_names;
        Alcotest.test_case "dense_of_size = Mat/Lu" `Quick
          test_dense_of_size_matches_mat;
        Alcotest.test_case "dense real bit-exact vs reference" `Quick
          test_dense_real_bit_exact;
        Alcotest.test_case "Lu bit-exact vs reference" `Quick
          test_public_real_bit_exact;
        Alcotest.test_case "dense complex bit-exact vs reference" `Quick
          test_dense_complex_bit_exact;
        Alcotest.test_case "Cmat bit-exact vs reference" `Quick
          test_public_complex_bit_exact;
        Alcotest.test_case "signed-zero fixtures bit-exact" `Quick
          test_signed_zero_fixtures;
        Alcotest.test_case "csr real bit-exact vs reference" `Quick
          test_csr_real_bit_exact;
        Alcotest.test_case "csr complex bit-exact vs reference" `Quick
          test_csr_complex_bit_exact;
        Alcotest.test_case "csr singular then regular" `Quick
          test_csr_singular_then_regular;
        Alcotest.test_case "csr solves allocate only results" `Quick
          test_csr_solves_allocate_only_results;
        Alcotest.test_case "out-of-range stamps raise" `Quick
          test_out_of_range_stamps;
      ] );
    ( "linsys.circuit",
      [
        Alcotest.test_case "dc+ac dense = csr (miller)" `Quick
          test_circuit_dc_ac_dense_csr;
        Alcotest.test_case "dc+ac dense bit-exact (ota, miller)" `Quick
          (fun () -> check_circuits_bit_exact Linsys.Dense);
        Alcotest.test_case "dc+ac csr bit-exact (ota, miller)" `Quick
          (fun () -> check_circuits_bit_exact Linsys.Csr);
        Alcotest.test_case "complex refactor bit-exact" `Quick
          test_complex_refactor_bit_exact;
        Alcotest.test_case "transient dense = csr" `Quick
          test_circuit_tran_dense_csr;
        Alcotest.test_case "session pattern cache" `Quick
          test_session_pattern_cache;
        Alcotest.test_case "ota overrides bit-identical" `Quick
          test_ota_overrides_bit_identical;
        Alcotest.test_case "miller overrides bit-identical" `Quick
          test_miller_overrides_bit_identical;
        Alcotest.test_case "evaluate cached sys = fresh sys" `Quick
          test_evaluate_cached_sys_bit_identical;
      ] );
  ]
