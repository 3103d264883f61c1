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

(* the pattern of the (i, j, _) entries listed, and its dense system *)
let pattern_of_adds n adds =
  let b = Linsys.Pattern.builder n in
  List.iter (fun (i, j, _) -> Linsys.Pattern.add b i j) adds;
  Linsys.Pattern.build b

let dense_of_adds n adds = Linsys.compile Linsys.Dense (pattern_of_adds n adds)

(* the dense system of the full n x n pattern *)
let dense_full n =
  dense_of_adds n (List.concat (List.init n (fun i -> List.init n (fun j -> (i, j, ())))))

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

let test_dense_real_matches_mat () =
  let n = 4 in
  let st = Random.State.make [| 42 |] in
  let m = Mat.create n n in
  let sys = Linsys.real (dense_full n) in
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

(* The sweep entry of a workspace that only has a [factor]: each frequency
   factored on its own and solved for the whole solution, the
   point-by-point sweep the entry must reproduce. *)
let sweep_by_factor factor rhs ~freqs ~out ~re ~im =
  let one k =
    let x = factor ~omega:(2. *. Float.pi *. freqs.(k)) rhs in
    let z = if out < 0 then Complex.zero else x.(out) in
    re.(k) <- z.Complex.re;
    im.(k) <- z.Complex.im
  in
  fun k k' ->
    one k;
    if k' >= 0 then one k';
    0

(* a sweep entry's point solver ([sweep rhs ~freqs ~out], before its
   response arrays), answering into [response] as complex numbers: each
   point copies the parts it wrote *)
let on_complex sweep (response : Complex.t array) =
  let n = Array.length response in
  let re = Array.make n 0. and im = Array.make n 0. in
  let point = sweep ~re ~im in
  fun k k' ->
    let generic = point k k' in
    response.(k) <- { Complex.re = re.(k); im = im.(k) };
    if k' >= 0 then response.(k') <- { Complex.re = re.(k'); im = im.(k') };
    generic

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
      owner = dense_full n;
      values = m.data;
      reset = (fun () -> fill m);
      add = add_to m;
      solve = (fun b -> solve (factor m) b);
      solve_into = (fun b x -> Array.blit (solve (factor m) b) 0 x 0 n);
    }

  let complex n =
    let g = create n n and c = create n n in
    let factor ~omega =
      let m = of_real ~imag_scale:omega g c in
      fun rhs -> csolve m rhs
    in
    {
      Linsys.cn = n;
      cowner = dense_full n;
      gvalues = g.data;
      cvalues = c.data;
      creset =
        (fun () ->
          fill g;
          fill c);
      add_g = add_to g;
      add_c = add_to c;
      factor;
      sweep = sweep_by_factor factor;
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
        let dense = Linsys.real (dense_of_adds n adds) in
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

(* ---------- the sweep entry ---------- *)

(* frequencies whose omegas 2 pi f reach the edge cases of [omegas]: a
   zero and a negative scale, products underflowing to -0, Inf and NaN *)
let edge_freqs = [| 1e6; 1.; 1e9; 0.; -3.; 5e-324; Float.infinity; Float.nan |]

(* [point k k'] of a sweep entry made with [~response] must give what a
   point-by-point sweep gives: [expect.(k)], the outcome of frequency k's
   output entry, and then [expect.(k')], or the row of the first
   breakdown, k's before k''s.  Every point alone and every ordered pair
   is checked.  The result counts the pairs that broke down in both lanes
   with lane 1 at the earlier row, the case where the row raised is not
   the first one met, and the frequencies the points reported as run by
   the generic elimination. *)
let check_sweep_entries what ~expect point =
  let nf = Array.length expect in
  let response = Array.make nf Complex.zero in
  let point = on_complex point response in
  let crossed = ref 0 and generic = ref 0 in
  for k = 0 to nf - 1 do
    for k' = -1 to nf - 1 do
      if k' <> k then begin
        let want =
          match expect.(k) with
          | Error r -> Error r
          | Ok z when k' < 0 -> Ok [| z |]
          | Ok z -> ( match expect.(k') with Error r -> Error r | Ok z' -> Ok [| z; z' |])
        in
        (match (expect.(k), if k' < 0 then Ok Complex.zero else expect.(k')) with
        | Error r, Error r' when r' < r -> incr crossed
        | _ -> ());
        check_complex_outcome
          (Printf.sprintf "%s point (%d, %d)" what k k')
          want
          (outcome (fun () ->
               generic := !generic + point k k';
               if k' < 0 then [| response.(k) |] else [| response.(k); response.(k') |]))
      end
    done
  done;
  (!crossed, !generic)

(* [check_sweep_entries] against [reference.(k)], the outcome of a
   [factor] solve at frequency k, at entry [out]; the crossed pairs *)
let check_sweep_points what ~reference ~out point =
  let entry x = if out < 0 then Complex.zero else x.(out) in
  fst
    (check_sweep_entries
       (Printf.sprintf "%s out %d" what out)
       ~expect:(Array.map (Result.map entry) reference)
       point)

(* The reference of a dense sweep point: Cmat.solve_entry on
   G + j omega C, built by Cmat.of_real from the row-major [g] and [c],
   with the zero skip the dense [factor] takes for that pencil (omega > 0
   and no product omega *. C underflowing to zero). *)
let solve_entry_reference ~g ~c ~freqs b out =
  let n = Array.length b in
  let mat v = Mat.init n n (fun i j -> v.((i * n) + j)) in
  let gm = mat g and cm = mat c in
  let re = Array.map (fun z -> z.Complex.re) b and im = Array.map (fun z -> z.Complex.im) b in
  Array.map
    (fun f ->
      let omega = 2. *. Float.pi *. f in
      let skip_zeros =
        omega > 0. && not (Array.exists (fun cv -> omega *. cv = 0. && cv <> 0.) c)
      in
      let m = Cmat.of_real ~imag_scale:omega gm cm in
      outcome (fun () -> Cmat.solve_entry (Cmat.work n) ~skip_zeros m ~re ~im out))
    freqs

(* a dense workspace's sweep against [solve_entry_reference] on its own
   assembled G and C; the crossed pairs and the generic count *)
let check_dense_sweep what (cs : Linsys.complex_sys) ~freqs b out =
  let expect = solve_entry_reference ~g:cs.Linsys.gvalues ~c:cs.Linsys.cvalues ~freqs b out in
  check_sweep_entries
    (Printf.sprintf "%s out %d" what out)
    ~expect
    (cs.Linsys.sweep b ~freqs ~out)

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
        let dense = Linsys.complex (dense_of_adds n (g_adds @ c_adds)) in
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
          omegas;
        (* the sweep entry, through the pattern's pivot-path plan, at
           the same omegas *)
        let freqs = Array.of_list (List.map (fun omega -> omega /. (2. *. Float.pi)) omegas) in
        let b = random_complex_rhs st n in
        let reference =
          Array.map
            (fun f -> outcome (fun () -> reference.Linsys.factor ~omega:(2. *. Float.pi *. f) b))
            freqs
        in
        List.iter
          (fun out ->
            ignore
              (check_sweep_points
                 (Printf.sprintf "seed %d n %d sweep" seed n)
                 ~reference ~out
                 (dense.Linsys.sweep b ~freqs ~out)))
          [ -1; n - 1 ])
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
  let dense = Linsys.complex (dense_of_adds 3 (g @ c)) and reference = Ref.complex 3 in
  let assemble ~c_scale =
    List.iter
      (fun cs ->
        cs.Linsys.creset ();
        List.iter (fun (i, j, v) -> cs.Linsys.add_g i j v) g;
        List.iter (fun (i, j, v) -> cs.Linsys.add_c i j (c_scale *. v)) c)
      [ dense; reference ]
  in
  assemble ~c_scale:1.;
  let omega = 5e-324 in
  let sd = dense.Linsys.factor ~omega and sr = reference.Linsys.factor ~omega in
  let each_rhs f =
    List.iter
      (fun re ->
        List.iter
          (fun im -> f (Array.init 3 (fun i -> { Complex.re = re.(i); im = im.(i) })))
          signed_zero_rhs)
      signed_zero_rhs
  in
  each_rhs (fun b ->
      check_complex_outcome "omega *. C underflowing to -0"
        (outcome (fun () -> sr b))
        (outcome (fun () -> sd b)));
  (* the sweep at the smallest positive frequency, where omega *. C
     underflows to -0 once C is a thousand times smaller, and at two
     ordinary ones *)
  assemble ~c_scale:1e-3;
  let freqs = [| 5e-324; 1e6; 1. |] in
  each_rhs (fun b ->
      let reference =
        Array.map
          (fun f -> outcome (fun () -> reference.Linsys.factor ~omega:(2. *. Float.pi *. f) b))
          freqs
      in
      for out = -1 to 2 do
        ignore
          (check_sweep_points "sweep over an underflowing omega *. C" ~reference ~out
             (dense.Linsys.sweep b ~freqs ~out))
      done)

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
      (match cgot with
      | Error k when expect_singular && k > 0 -> ()
      | Ok _ when not expect_singular -> ()
      | _ -> Alcotest.failf "%s: unexpected complex outcome" what);
      (* the sweep entry on the same workspace, single and paired points *)
      let freqs = [| 1e6; 10. |] in
      let reference =
        Array.map
          (fun f -> outcome (fun () -> Csr_ref.cfactor crw ~omega:(2. *. Float.pi *. f) cb))
          freqs
      in
      for out = -1 to n - 1 do
        ignore
          (check_sweep_points (what ^ " sweep") ~reference ~out
             (Csr.csweep cw cb ~freqs ~out))
      done)
    [ ("regular", regular, false); ("singular", singular, true); ("regular again", regular, false) ]

(* The sweep entry against two point-by-point [cfactor] solves on the
   random csr patterns (n up to 40, NaN / Inf poisons, right-hand sides
   with signed zeros) at the edge frequencies, and on a diagonal system
   whose 1 MHz lane breaks down at row 2 and whose 0 Hz lane at row 1.
   Seeds 101-150 draw n <= 4, where one lane's zero multiplier meets the
   other lane's update often enough to catch a lane that skips no zero. *)
let test_csr_sweep_bit_exact () =
  let crossed = ref 0 in
  for seed = 1 to 190 do
    let st = Random.State.make [| seed; 71 |] in
    let small_n = if seed <= 100 then 10 else 4 in
    let n, g_adds = csr_case st seed ~small_seeds:150 ~small_n in
    let c_adds =
      List.filter_map
        (fun (i, j, v) -> if Random.State.bool st then Some (i, j, v *. 1e-9) else None)
        (if seed <= 150 then random_adds st n else random_adds ~per_row:2 st n)
    in
    let sym, _ = csr_pair st n ~strong:n (g_adds @ c_adds) in
    let w = Csr.cwork sym and rw = Csr.cwork sym in
    List.iter
      (fun p ->
        let g_adds = poison_entry st g_adds p in
        List.iter
          (fun w ->
            Csr.creset w;
            List.iter (fun (i, j, v) -> Csr.cadd_g w i j v) g_adds;
            List.iter (fun (i, j, v) -> Csr.cadd_c w i j v) c_adds)
          [ w; rw ];
        for r = 1 to 2 do
          let b = random_complex_rhs st n in
          let reference =
            Array.map
              (fun f -> outcome (fun () -> Csr.cfactor rw ~omega:(2. *. Float.pi *. f) b))
              edge_freqs
          in
          List.iter
            (fun out ->
              crossed :=
                !crossed
                + check_sweep_points
                    (Printf.sprintf "seed %d n %d rhs %d" seed n r)
                    ~reference ~out
                    (Csr.csweep w b ~freqs:edge_freqs ~out))
            [ -1; 0; n - 1; Random.State.int st n ]
        done)
      poisons
  done;
  let st = Random.State.make [| 79 |] in
  let sym, _ = csr_pair st 3 ~strong:3 [ (0, 0, 1.); (1, 1, 0.); (2, 2, 0.) ] in
  let w = Csr.cwork sym and rw = Csr.cwork sym in
  List.iter
    (fun w ->
      Csr.cadd_g w 0 0 1.;
      Csr.cadd_c w 1 1 1e-9)
    [ w; rw ];
  let b = Array.make 3 Complex.one in
  let reference =
    Array.map
      (fun f -> outcome (fun () -> Csr.cfactor rw ~omega:(2. *. Float.pi *. f) b))
      edge_freqs
  in
  Alcotest.(check bool) "1 MHz breaks at row 2" true (reference.(0) = Error 2);
  Alcotest.(check bool) "0 Hz breaks at row 1" true (reference.(3) = Error 1);
  for out = -1 to 2 do
    crossed :=
      !crossed
      + check_sweep_points "diagonal" ~reference ~out (Csr.csweep w b ~freqs:edge_freqs ~out)
  done;
  Alcotest.(check bool) "pairs whose lane 1 broke down first were checked" true
    (!crossed > 0)

(* The dense entry, through the pivot-path plan of a compiled random
   pattern, against point-by-point Cmat.solve_entry at the edge
   frequencies (omega 0, negative, underflowing, Inf, NaN), with exact
   zeros, NaN and Inf poisons, right-hand sides with signed zeros and every
   output including none.  A quarter of the systems stamp one entry
   outside their pattern, and a quarter overwrite a pattern entry of G or
   C with -0; the plan must leave them to the generic elimination.  A
   system that fits its pattern sweeps 1 MHz, 1 Hz and 1 GHz through the
   plan alone.  Then Cmat.solve_entry against Cmat.solve_with on matrices
   with -0 entries, with and without the zero skip. *)
let test_dense_sweep_bit_exact () =
  let generic = ref 0 and planned = ref 0 in
  for seed = 1 to 150 do
    let st = Random.State.make [| seed; 73 |] in
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
        let adds = g_adds @ c_adds in
        let outside = Random.State.int st 4 = 0 and neg_zero = Random.State.int st 4 = 0 in
        let i0, j0, _ = List.nth adds (Random.State.int st (List.length adds)) in
        let pattern =
          if outside then List.filter (fun (i, j, _) -> (i, j) <> (i0, j0)) adds else adds
        in
        let cs = Linsys.complex (dense_of_adds n pattern) in
        cs.Linsys.creset ();
        List.iter (fun (i, j, v) -> cs.Linsys.add_g i j v) g_adds;
        List.iter (fun (i, j, v) -> cs.Linsys.add_c i j v) c_adds;
        if neg_zero then
          (if Random.State.bool st then cs.Linsys.gvalues else cs.Linsys.cvalues).((i0 * n) + j0)
          <- -0.;
        for r = 1 to 2 do
          let b = random_complex_rhs st n in
          List.iter
            (fun out ->
              let _, g =
                check_dense_sweep
                  (Printf.sprintf "seed %d n %d rhs %d" seed n r)
                  cs ~freqs:edge_freqs b out
              in
              generic := !generic + g)
            [ -1; 0; n - 1; Random.State.int st n ]
        done;
        if (not outside) && (not neg_zero) && p = `None then begin
          let freqs = [| 1e6; 1.; 1e9 |] and response = Array.make 3 Complex.zero in
          let point =
            on_complex (cs.Linsys.sweep (random_complex_rhs st n) ~freqs ~out:(n - 1)) response
          in
          for k = 0 to 2 do
            match point k (-1) with
            | 0 -> incr planned
            | exception Lu.Singular _ -> ()
            | _ -> Alcotest.failf "seed %d n %d: %g Hz left the plan" seed n freqs.(k)
          done
        end)
      poisons
  done;
  Alcotest.(check bool) "some points ran the generic elimination" true (!generic > 0);
  Alcotest.(check bool) "fitting systems swept through the plan" true (!planned > 100);
  for seed = 1 to 100 do
    let st = Random.State.make [| seed; 83 |] in
    let n = 1 + Random.State.int st 9 in
    let g = Mat.create n n and c = Mat.create n n in
    List.iter (fun (i, j, v) -> Mat.add_to g i j v)
      (poison st n (random_adds st n) (List.nth poisons (seed mod 3)));
    List.iter (fun (i, j, v) -> Mat.add_to c i j (v *. 1e-9)) (random_adds st n);
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if Mat.get g i j = 0. && Random.State.int st 3 = 0 then Mat.set g i j (-0.)
      done
    done;
    let w = Cmat.work n in
    List.iter
      (fun omega ->
        let m = Cmat.of_real ~imag_scale:omega g c in
        let b = random_complex_rhs st n in
        let re = Array.map (fun z -> z.Complex.re) b and im = Array.map (fun z -> z.Complex.im) b in
        List.iter
          (fun skip_zeros ->
            let full = outcome (fun () -> Cmat.solve_with (Cmat.work n) ~skip_zeros m b) in
            for k = -1 to n - 1 do
              check_complex_outcome
                (Printf.sprintf "seed %d n %d omega %g skip %b entry %d" seed n omega
                   skip_zeros k)
                (Result.map (fun x -> [| (if k < 0 then Complex.zero else x.(k)) |]) full)
                (outcome (fun () -> [| Cmat.solve_entry w ~skip_zeros m ~re ~im k |]))
            done)
          [ true; false ])
      omegas
  done

module Pivot_path = Yield_numeric.Pivot_path

(* a dense workspace of the pattern of [g] and [c], assembled with them *)
let dense_assembled n g c =
  let cs = Linsys.complex (dense_of_adds n (g @ c)) in
  cs.Linsys.creset ();
  List.iter (fun (i, j, v) -> cs.Linsys.add_g i j v) g;
  List.iter (fun (i, j, v) -> cs.Linsys.add_c i j v) c;
  cs

(* Hand-built systems for the plan's edges, each swept at every point
   and ordered pair against Cmat.solve_entry: a pair whose lanes pivot on
   different rows, a pair whose lane b breaks at an earlier row than lane
   a, a multiplier that is not finite at step 1 of 3, and a singular lane
   b after a regular lane a on a workspace that then sweeps on. *)
let test_dense_sweep_fixtures () =
  let b2 = [| Complex.one; { Complex.re = -0.5; im = 0.25 } |] in
  (* column 0 holds 1 and j omega 1e-6: row 0 pivots below about
     160 kHz, row 1 above *)
  let g = [ (0, 0, 1.); (0, 1, 1.); (1, 1, 2.) ] and c = [ (1, 0, 1e-6) ] in
  let freqs = [| 1e2; 1e9; 1e3; 1e8 |] in
  for out = -1 to 1 do
    let cs = dense_assembled 2 g c in
    let _, generic = check_dense_sweep "diverging pivots" cs ~freqs b2 out in
    Alcotest.(check int) "diverging pivots stay on the plan" 0 generic
  done;
  let rows = Linsys.Pattern.rows (pattern_of_adds 2 (g @ c)) in
  let plan = Pivot_path.create ~n:2 (fun () -> rows) in
  let w = Pivot_path.work plan in
  List.iter (fun (i, j, v) -> (Pivot_path.gvalues w).((i * 2) + j) <- v) g;
  List.iter (fun (i, j, v) -> (Pivot_path.cvalues w).((i * 2) + j) <- v) c;
  let response = Array.make 2 Complex.zero in
  Alcotest.(check int) "one pass, two paths" 0
    (on_complex (Pivot_path.sweep w b2 ~freqs:[| 1e2; 1e9 |] ~out:1) response 0 1);
  Alcotest.(check int) "the root grew a child per pivot row, each its last step" 4
    (Pivot_path.grown plan);
  (* G = diag(1, 0, 0) and C = 1e-150 at (1, 1): at omega 1e20 row 1
     pivots and row 2 breaks; at omega 1 row 1 breaks already *)
  let b3 = Array.make 3 Complex.one in
  let g = [ (0, 0, 1.); (2, 2, 0.) ] and c = [ (1, 1, 1e-150) ] in
  let freqs = [| 1e20 /. (2. *. Float.pi); 1. /. (2. *. Float.pi) |] in
  let cs = dense_assembled 3 g c in
  let expect = solve_entry_reference ~g:cs.Linsys.gvalues ~c:cs.Linsys.cvalues ~freqs b3 0 in
  Alcotest.(check bool) "lane a breaks at row 2" true (expect.(0) = Error 2);
  Alcotest.(check bool) "lane b breaks at row 1" true (expect.(1) = Error 1);
  for out = -1 to 2 do
    let crossed, _ = check_dense_sweep "lane b breaks first" cs ~freqs b3 out in
    Alcotest.(check int) "the pair with lane b breaking first" 1 crossed
  done;
  (* an infinite G at (2, 1) pivots step 1 and makes row 2's multiplier
     NaN; steps 0 and 2 are ordinary *)
  let g =
    [ (0, 0, 1.); (1, 1, 1.); (2, 1, Float.infinity); (1, 2, 1.); (2, 2, 3.); (0, 2, 1.) ]
  in
  let c = [ (0, 0, 1e-9); (2, 2, 1e-9) ] in
  let freqs = [| 1e6; 1e3 |] in
  for out = -1 to 2 do
    let cs = dense_assembled 3 g c in
    let _, generic = check_dense_sweep "non-finite multiplier" cs ~freqs b3 out in
    (* 2 single points and 2 pairs of 2 *)
    Alcotest.(check int) "every point left the plan at step 2" 6 generic
  done;
  (* a regular lane a, then a lane b singular at row 2, then the
     workspace sweeps on: whatever a's path left in its buffer must not
     leak into the next point *)
  let g = [ (0, 0, 2.); (0, 1, 1.); (1, 0, 1.); (1, 1, 3.); (1, 2, 1.); (2, 1, 1.) ] in
  let c = [ (2, 2, 1e-9); (0, 2, 1e-9); (2, 0, 1e-9) ] in
  let freqs = [| 1e6; 0.; 1e3; -1.; 1e7 |] in
  for out = -1 to 2 do
    ignore (check_dense_sweep "regular then singular" (dense_assembled 3 g c) ~freqs b3 out)
  done

(* Two domains sweep one shared plan as it grows, each over the same
   systems in another order, and must answer what serial sweeps answer:
   growth publishes each path whole, and a domain that loses a race uses
   the winner's. *)
let test_dense_plan_two_domains () =
  let n = 7 in
  let st = Random.State.make [| 97 |] in
  let rows = Linsys.Pattern.rows (pattern_of_adds n (random_adds st n)) in
  let entries =
    List.concat (List.init n (fun i -> List.map (fun j -> (i, j)) (Array.to_list rows.(i))))
  in
  (* values spread over six decades, so the systems pivot many ways *)
  let value () =
    (if Random.State.bool st then 1. else -1.) *. (10. ** Random.State.float st 6.)
  in
  let systems =
    Array.init 60 (fun _ ->
        ( List.map (fun (i, j) -> (i, j, value ())) entries,
          List.map (fun (i, j) -> (i, j, 1e-9 *. value ())) entries,
          random_complex_rhs st n ))
  in
  let freqs = [| 1e3; 1e6; 1e9; 1e4; 1e8 |] in
  let sweep_all plan order =
    let w = Pivot_path.work plan in
    Array.map
      (fun idx ->
        let g, c, b = systems.(idx) in
        Pivot_path.reset w;
        List.iter (fun (i, j, v) -> (Pivot_path.gvalues w).((i * n) + j) <- v) g;
        List.iter (fun (i, j, v) -> (Pivot_path.cvalues w).((i * n) + j) <- v) c;
        let response = Array.make 5 Complex.zero in
        let point = on_complex (Pivot_path.sweep w b ~freqs ~out:(n - 1)) response in
        ( idx,
          outcome (fun () ->
              let generic = point 0 1 + point 2 3 + point 4 (-1) in
              Array.append [| { Complex.re = float_of_int generic; im = 0. } |] response) ))
      order
  in
  let forward = Array.init (Array.length systems) Fun.id in
  let backward = Array.init (Array.length systems) (fun i -> Array.length systems - 1 - i) in
  let serial_plan = Pivot_path.create ~n (fun () -> rows) in
  let serial = sweep_all serial_plan forward in
  let shared = Pivot_path.create ~n (fun () -> rows) in
  let d1 = Domain.spawn (fun () -> sweep_all shared forward) in
  let d2 = Domain.spawn (fun () -> sweep_all shared backward) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  let check what results =
    Array.iter
      (fun (idx, got) ->
        check_complex_outcome (Printf.sprintf "%s system %d" what idx) (snd serial.(idx)) got)
      results
  in
  check "domain 1" r1;
  check "domain 2" r2;
  Alcotest.(check bool) "the plan grew several paths" true
    (Pivot_path.grown serial_plan > 3 * n);
  Alcotest.(check int) "both plans grew the same paths" (Pivot_path.grown serial_plan)
    (Pivot_path.grown shared)

(* The scratch lives in the workspaces: a solve allocates its result, a
   factorisation its solver closure and a sweep point nothing (it writes
   its response into the caller's arrays).  A tridiagonal pattern
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
  let freqs = [| 1e6; 2e6; 3e6 |] in
  let re = Array.make 3 0. and im = Array.make 3 0. in
  let point = Csr.csweep cw cb ~freqs ~out:(n / 2) ~re ~im in
  for _ = 1 to 3 do
    let pw = words (fun () -> point 0 1) in
    if pw > 0. then Alcotest.failf "a paired sweep point allocated %g words" pw;
    let ow = words (fun () -> point 2 (-1)) in
    if ow > 0. then Alcotest.failf "a lone sweep point allocated %g words" ow;
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
      Alcotest.(check (array (float 0.))) (Linsys.name c ^ " solve") [| 1.; 2.; 3. |] x;
      (* the kernels index their own buffers unchecked, but every index a
         caller supplies stays checked: a sweep point off the grid, a
         response shorter than the grid, a right-hand side or solution of
         the wrong size all raise, and the workspaces then answer the bits
         of fresh ones *)
      let raises what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.failf "%s %s accepted" (Linsys.name c) what
      in
      let assemble (rs : Linsys.real) (cs : Linsys.complex_sys) =
        rs.Linsys.reset ();
        cs.Linsys.creset ();
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let g = if i = j then float (i + 2) else 0.5 /. float (i + j + 1) in
            rs.Linsys.add i j g;
            cs.Linsys.add_g i j g;
            cs.Linsys.add_c i j (1e-9 *. float (1 + ((i + (2 * j)) mod 3)))
          done
        done
      in
      let freqs = [| 1e3; 1e5; 1e7; 1e9 |] and out = n - 1 in
      let rhs = Array.init n (fun i -> { Complex.re = float (i + 1); im = 0. }) in
      let b = [| 1.; 2.; 3. |] in
      let sweep (cs : Linsys.complex_sys) =
        let re = Array.make 4 Float.nan and im = Array.make 4 Float.nan in
        let point = cs.Linsys.sweep rhs ~freqs ~out ~re ~im in
        ignore (point 0 1);
        ignore (point 2 (-1));
        ignore (point 3 (-1));
        Array.map Int64.bits_of_float (Array.append re im)
      in
      assemble rs cs;
      (* responses longer than the grid, so that only the grid can refuse *)
      let long = Array.make 6 0. in
      let point = cs.Linsys.sweep rhs ~freqs ~out ~re:long ~im:(Array.copy long) in
      raises "a point past the grid" (fun () -> point 4 (-1));
      raises "a paired point past the grid" (fun () -> point 0 4);
      raises "a pair's first point past the grid" (fun () -> point 5 0);
      let re = Array.make 4 0. and im = Array.make 4 0. and short = Array.make 3 0. in
      let point = cs.Linsys.sweep rhs ~freqs ~out ~re:short ~im in
      raises "a real response shorter than the grid" (fun () -> point 3 (-1));
      let point = cs.Linsys.sweep rhs ~freqs ~out ~re ~im:short in
      raises "an imaginary response shorter than the grid" (fun () -> point 2 3);
      raises "a short sweep right-hand side" (fun () ->
          cs.Linsys.sweep [| Complex.one |] ~freqs ~out ~re ~im);
      raises "a long factor right-hand side" (fun () ->
          cs.Linsys.factor ~omega:1e3 (Array.make (n + 1) Complex.one));
      let x = Array.make n 0. in
      raises "a short solve_into right-hand side" (fun () -> rs.Linsys.solve_into [| 1. |] x);
      raises "a long solve_into solution" (fun () ->
          rs.Linsys.solve_into b (Array.make (n + 1) 0.));
      raises "a short solve right-hand side" (fun () -> rs.Linsys.solve [| 1.; 2. |]);
      let fresh_rs = Linsys.real c and fresh_cs = Linsys.complex c in
      assemble fresh_rs fresh_cs;
      Alcotest.(check (array int64))
        (Linsys.name c ^ " sweep after the refusals")
        (sweep fresh_cs) (sweep cs);
      rs.Linsys.solve_into b x;
      Alcotest.(check (array int64))
        (Linsys.name c ^ " solve after the refusals")
        (Array.map Int64.bits_of_float (fresh_rs.Linsys.solve b))
        (Array.map Int64.bits_of_float x))
    [ Linsys.Dense; Linsys.Csr ];
  (* [Cmat.entry_into] writes the caller's response arrays checked *)
  let w = Cmat.work n in
  List.iter
    (fun (k, j) ->
      match Cmat.entry_into w k ~re:(Array.make 2 0.) ~im:(Array.make 4 0.) j with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "Cmat.entry_into %d into column %d accepted" k j)
    [ (0, 2); (0, 3); (0, -1); (-1, 2); (-1, -1); (n, 0) ]

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
            solve_into = (fun b x -> Array.blit (Csr_ref.rsolve rw b) 0 x 0 n);
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
            sweep = sweep_by_factor (Csr_ref.cfactor cw);
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

(* The dense sweep of the OTA and Miller testbenches' AC systems at their
   default operating points against point-by-point Cmat.solve_entry: the
   81 sweep frequencies, every point and ordered pair, at the output, at
   every unknown and with none; all through the plan.  Then the edge
   frequencies, where the plan must step aside. *)
let test_circuit_dense_sweep () =
  List.iter
    (fun (name, (circuit, _)) ->
      let sys = Mna.sys ~backend:Linsys.Dense circuit in
      let layout = Mna.sys_layout sys in
      let n = Mna.size layout in
      let op =
        match Dcop.solve ~sys circuit with
        | Ok op -> op
        | Error e -> Alcotest.failf "%s: %s" name (Dcop.error_to_string e)
      in
      let cs = Mna.sys_complex sys in
      let rhs = Mna.assemble_ac_into cs circuit layout ~ops:(Dcop.mos_op op) in
      let freqs = Gtb.freqs_of Gtb.default_conditions in
      let out = Circuit.node circuit "out" - 1 in
      List.iter
        (fun out ->
          let _, generic = check_dense_sweep name cs ~freqs rhs out in
          Alcotest.(check int) (name ^ ": every point on the plan") 0 generic)
        (out :: -1 :: List.init n Fun.id);
      let _, generic = check_dense_sweep (name ^ " edges") cs ~freqs:edge_freqs rhs out in
      Alcotest.(check bool) (name ^ ": edge frequencies leave the plan") true (generic > 0))
    [
      ("ota", Ota_tb.build Yield_circuits.Ota.default_params);
      ("miller", Miller_tb.build Yield_circuits.Miller.default_params);
    ]

(* After the plan has met its paths, a sweep point allocates nothing,
   alone or paired: it writes its response into the caller's arrays. *)
let test_dense_sweep_allocation () =
  let circuit, _ = Ota_tb.build Yield_circuits.Ota.default_params in
  let sys = Mna.sys circuit in
  let op =
    match Dcop.solve ~sys circuit with
    | Ok op -> op
    | Error e -> Alcotest.fail (Dcop.error_to_string e)
  in
  let cs = Mna.sys_complex sys in
  let rhs = Mna.assemble_ac_into cs circuit (Mna.sys_layout sys) ~ops:(Dcop.mos_op op) in
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  let nf = Array.length freqs in
  let re = Array.make nf 0. and im = Array.make nf 0. in
  let point = cs.Linsys.sweep rhs ~freqs ~out:(Circuit.node circuit "out" - 1) ~re ~im in
  for k = 0 to nf - 1 do
    ignore (point k (-1));
    if k + 1 < nf then ignore (point k (k + 1))
  done;
  let words f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  for k = 0 to nf - 2 do
    let pw = words (fun () -> point k (k + 1)) in
    if pw > 0. then Alcotest.failf "a paired dense point allocated %g words" pw;
    let ow = words (fun () -> point k (-1)) in
    if ow > 0. then Alcotest.failf "a lone dense point allocated %g words" ow
  done

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

(* A dense session builds its pattern only when its first AC sweep needs
   the pivot-path plan: DC solves never pay for it, and later sweeps reuse
   it. *)
let test_dense_pattern_deferred () =
  let circuit, _ = Ota_tb.build Yield_circuits.Ota.default_params in
  let builds = Linsys.Pattern.builds () in
  let sys = Mna.sys circuit in
  let op =
    match Dcop.solve ~sys circuit with
    | Ok op -> op
    | Error e -> Alcotest.fail (Dcop.error_to_string e)
  in
  Alcotest.(check int) "no pattern for DC" builds (Linsys.Pattern.builds ());
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  ignore (Ac.transfer_by_name ~sys circuit op ~out:"out" ~freqs);
  Alcotest.(check int) "one pattern at the first sweep" (builds + 1)
    (Linsys.Pattern.builds ());
  ignore (Ac.transfer_by_name ~sys circuit op ~out:"out" ~freqs);
  Alcotest.(check int) "none at the next" (builds + 1) (Linsys.Pattern.builds ());
  let calls = ref 0 in
  let deferred backend =
    Linsys.compile_deferred backend ~size:2 (fun () ->
        incr calls;
        let b = Linsys.Pattern.builder 2 in
        Linsys.Pattern.add b 0 0;
        Linsys.Pattern.add b 1 1;
        Linsys.Pattern.build b)
  in
  ignore (deferred Linsys.Csr);
  Alcotest.(check int) "csr analyses at once" 1 !calls;
  let dense = deferred Linsys.Dense in
  let rs = Linsys.real dense in
  rs.Linsys.add 0 0 2.;
  rs.Linsys.add 1 1 4.;
  Alcotest.(check (array (float 0.))) "dense real solve" [| 1.; 1. |]
    (rs.Linsys.solve [| 2.; 4. |]);
  Alcotest.(check int) "dense waits for a sweep" 1 !calls;
  let cs = Linsys.complex dense in
  cs.Linsys.add_g 0 0 1.;
  cs.Linsys.add_g 1 1 1.;
  let re = [| 0. |] and im = [| 0. |] in
  let point = cs.Linsys.sweep [| Complex.one; Complex.one |] ~freqs:[| 1e3 |] ~out:0 ~re ~im in
  ignore (point 0 (-1));
  Alcotest.(check int) "the first sweep builds it" 2 !calls

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

(* ---------- borrowed workspaces ---------- *)

module Pool = Yield_exec.Pool

(* the words [f ()] allocates, and its result *)
let allocated f =
  let before = Gc.minor_words () in
  let r = f () in
  let after = Gc.minor_words () in
  (after -. before, r)

(* The words of a DC answer the call must allocate: [x], the [Dcop.t],
   its [Ok] and each [mos_ops] cell, pair and operating-point record.
   The device names are the circuit's own strings. *)
let op_words (op : Dcop.t) =
  let ops =
    List.fold_left
      (fun acc (_, m) -> acc + 3 + 3 + Obj.reachable_words (Obj.repr m))
      0 op.Dcop.mos_ops
  in
  Array.length op.Dcop.x + 1 + 5 + 2 + ops

(* Beyond its answer, a solve allocates the one buffer every MOSFET's
   operating point is evaluated in (10 words) and its borrowing closure:
   about 20 words, whatever the iterations.  The homotopy chain's
   closures, its attempt list and boxed metric values, and the free-list
   cell that gave the workspace back took about 70 more. *)
let dc_overhead = 32.

(* The words of a transfer's bode: the record, the response array of
   the swept points, 3 words a swept response and, for a stopped sweep,
   the frequencies' prefix. *)
let bode_words ~grid (b : Ac.bode) =
  let swept = Array.length b.Ac.response in
  3 + (swept + 1) + (3 * swept) + if swept < grid then swept + 1 else 0

(* Beyond its bode, a transfer allocates its operating-point lookup and
   bode-building closures and the AC source's complex right-hand-side
   entry: about 25 words, whatever the points.  The sweep's closures, the
   zero entries' records and the free-list cell took about 55 more. *)
let ac_overhead = 32.

let check_dc_words name sys ?start ?models circuit =
  let solve () = Dcop.solve ~sys ?start ?models circuit in
  ignore (solve ());
  ignore (solve ());
  let words, r = allocated solve in
  match r with
  | Error e -> Alcotest.failf "%s: %s" name (Dcop.error_to_string e)
  | Ok op ->
      let answer = float_of_int (op_words op) in
      if words > answer +. dc_overhead then
        Alcotest.failf "%s: a DC solve allocated %g words, its answer is %g (+ %g)"
          name words answer dc_overhead;
      (words, op)

let check_ac_words name sys circuit op ~stopped =
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  let transfer () =
    let stop = if stopped then Gtb.sweep_stop else fun _ _ -> max_int in
    allocated (fun () -> Ac.transfer_by_name ~sys ~stop circuit op ~out:"out" ~freqs)
  in
  ignore (transfer ());
  let words, b = transfer () in
  let answer = float_of_int (bode_words ~grid:(Array.length freqs) b) in
  if stopped && Array.length b.Ac.freqs = Array.length freqs then
    Alcotest.failf "%s: the sweep did not stop" name;
  if words > answer +. ac_overhead then
    Alcotest.failf "%s: a transfer allocated %g words, its bode is %g (+ %g)" name
      words answer ac_overhead

(* After warm-up, in a cached dense session and in a csr one: a DC solve
   allocates its answer and a constant, the same for a one-iteration warm
   start as for a ten-iteration cold solve, and a transfer its bode and a
   constant. *)
let test_solves_allocate_answers () =
  let params = Yield_circuits.Ota.default_params in
  List.iter
    (fun backend ->
      let name = Linsys.backend_name backend in
      let s = Ota_tb.session ~solver:backend params in
      let sys = Ota_tb.session_sys s and circuit = Ota_tb.session_circuit s in
      let cold_words, op = check_dc_words (name ^ " cold") sys circuit in
      let warm_words, warm = check_dc_words (name ^ " warm") sys ~start:op.Dcop.x circuit in
      if op.Dcop.iterations <= warm.Dcop.iterations then
        Alcotest.failf "%s: the warm start took %d iterations, cold %d" name
          warm.Dcop.iterations op.Dcop.iterations;
      (* the iterations allocate nothing *)
      if cold_words > warm_words then
        Alcotest.failf "%s: %d iterations allocated %g words, %d iterations %g" name
          op.Dcop.iterations cold_words warm.Dcop.iterations warm_words;
      let models =
        Variation.overrides Variation.default_spec (Rng.create 5) circuit
      in
      ignore (check_dc_words (name ^ " sample") sys ~start:op.Dcop.x ~models circuit);
      check_ac_words (name ^ " full sweep") sys circuit op ~stopped:false;
      check_ac_words (name ^ " stopped sweep") sys circuit op ~stopped:true)
    [ Linsys.Dense; Linsys.Csr ]

let check_bits name a b =
  if not (same_bits a b) then Alcotest.failf "%s: %h <> %h" name a b

let check_op_bits name (a : Dcop.t) (b : Dcop.t) =
  Alcotest.(check int) (name ^ " iterations") a.Dcop.iterations b.Dcop.iterations;
  Array.iteri (fun i v -> check_bits (Printf.sprintf "%s x.(%d)" name i) v b.Dcop.x.(i)) a.Dcop.x;
  Alcotest.(check (list string)) (name ^ " devices")
    (List.map fst a.Dcop.mos_ops) (List.map fst b.Dcop.mos_ops);
  List.iter2
    (fun (dev, (p : Yield_spice.Mosfet.op)) (_, (q : Yield_spice.Mosfet.op)) ->
      let f what x y = check_bits (Printf.sprintf "%s %s %s" name dev what) x y in
      f "ids" p.ids q.ids;
      f "gm" p.gm q.gm;
      f "gds" p.gds q.gds;
      f "gmb" p.gmb q.gmb;
      f "vth" p.vth q.vth;
      f "vdsat" p.vdsat q.vdsat;
      f "vgs" p.vgs q.vgs;
      f "vds" p.vds q.vds;
      f "vbs" p.vbs q.vbs;
      f "cgs" p.cgs q.cgs;
      f "cgd" p.cgd q.cgd;
      f "cdb" p.cdb q.cdb;
      f "csb" p.csb q.csb;
      if p.region <> q.region then Alcotest.failf "%s %s region" name dev)
    a.Dcop.mos_ops b.Dcop.mos_ops

let check_bode_bits name (a : Ac.bode) (b : Ac.bode) =
  Alcotest.(check int) (name ^ " points") (Array.length a.Ac.freqs) (Array.length b.Ac.freqs);
  Array.iteri
    (fun i f ->
      check_bits (Printf.sprintf "%s freq %d" name i) f b.Ac.freqs.(i);
      let z = a.Ac.response.(i) and w = b.Ac.response.(i) in
      check_bits (Printf.sprintf "%s re %d" name i) z.Complex.re w.Complex.re;
      check_bits (Printf.sprintf "%s im %d" name i) z.Complex.im w.Complex.im)
    a.Ac.freqs

let solved name = function
  | Ok op -> op
  | Error e -> Alcotest.failf "%s: %s" name (Dcop.error_to_string e)

(* the widths of a sizing scaled by [k] *)
let scaled to_array of_array params k =
  of_array (Array.mapi (fun i x -> if i mod 2 = 0 then x *. k else x) (to_array params))

(* words a warmed call of [f] allocates: the fewest of 5 runs of 200
   calls *)
let words_per_call f =
  let best = ref infinity in
  for _ = 1 to 5 do
    ignore (Sys.opaque_identity (f ()));
    let before = Gc.minor_words () in
    for _ = 1 to 200 do
      ignore (Sys.opaque_identity (f ()))
    done;
    best := Float.min !best ((Gc.minor_words () -. before) /. 200.)
  done;
  !best

let check_words what f bound =
  let w = words_per_call f in
  if w > bound then Alcotest.failf "%s allocated %g words, the bound is %g" what w bound

(* A draw writes the generator's flat state in place: it allocates only
   the float it returns (boxed, 2 words, for a caller in another unit),
   and a split only the child's buffer. *)
let test_draws_allocate_results () =
  let rng = Rng.create 2008 in
  check_words "Rng.float" (fun () -> Rng.float rng) 2.;
  check_words "Rng.gaussian" (fun () -> Rng.gaussian rng) 2.;
  check_words "Rng.normal" (fun () -> Rng.normal rng ~mean:0. ~sigma:1.) 2.;
  check_words "Rng.split" (fun () -> Rng.split rng) 8.

(* A sample's overrides on the default Miller allocate the models array
   (17 words), a [Some] and a perturbed model per MOSFET (22 words, 8
   MOSFETs) and the global draw (12): no tuple, boxed sigma or boxed
   delta, about 210 words. *)
let test_overrides_allocation () =
  let circuit, _ = Miller_tb.build Yield_circuits.Miller.default_params in
  let rng = Rng.create 2008 in
  check_words "Variation.overrides (miller)"
    (fun () -> Variation.overrides Variation.default_spec rng circuit)
    220.

(* A csr Miller session sample, its stream split off as the Monte Carlo
   does: the split (7 words), the overrides (about 210), the perf and the
   arguments of its DC, sweep and extraction, about 270 words.  Its
   operating point, response, magnitudes and phases stay in the borrowed
   workspaces, and a converged DC solve and the sweep keep their
   bookkeeping there: the retry and homotopy closures, the attempt list
   and the sweep's closures took about 180 words more, building the
   operating point and the bode about 1,150. *)
let test_session_sample_allocation () =
  let s = Miller_tb.session ~solver:Linsys.Csr Yield_circuits.Miller.default_params in
  let rng = Rng.create 2008 in
  check_words "a csr miller session sample"
    (fun () ->
      Miller_tb.evaluate_in_session s ~spec:Variation.default_spec ~rng:(Rng.split rng))
    360.

(* An evaluation sizes its topology's one template at assembly: it
   allocates its perf, its sizes (the design vector and the record that
   pairs it with the template's index map, 12 words) and a few dozen
   words of arguments and boxed measurements, about 64 words.
   Rebuilding the testbench took about 630 words more, and the DC and
   sweep bookkeeping about 250. *)
let test_evaluate_allocation () =
  check_words "an ota evaluation"
    (fun () -> Ota_tb.evaluate Yield_circuits.Ota.default_params)
    128.;
  check_words "a miller evaluation"
    (fun () -> Miller_tb.evaluate Yield_circuits.Miller.default_params)
    128.

(* A DC solve whose Newton stage converges, with a unit continuation,
   allocates its [Ok] and nothing else: the homotopy chain and the retry
   loop are closure-free, the workspace is borrowed without a list cell,
   and the counts reach their histograms as ints.  It used to take about
   100 words of that bookkeeping. *)
let test_with_solution_allocation () =
  List.iter
    (fun backend ->
      let circuit, _ = Ota_tb.build Yield_circuits.Ota.default_params in
      let sys = Mna.sys ~backend circuit in
      check_words
        (Linsys.backend_name backend ^ " Dcop.with_solution")
        (fun () -> Dcop.with_solution ~sys circuit (fun _ _ -> ()))
        16.)
    [ Linsys.Dense; Linsys.Csr ]

(* The evaluation path leaves its operating point in the DC workspace and
   its response and magnitudes in the AC workspace; it must give the bits
   of the path that builds them: perf_of_bode of the full Ac.transfer of
   Dcop.solve_with_retry's operating point.  On the OTA and the Miller,
   for [evaluate] at several sizings and for seeded session samples on a
   dense and a csr session (the csr reference starts at the session's
   nominal point, as the session does), serially and from a two-domain
   pool. *)
module Path_bits (A : Yield_circuits.Amplifier.S) = struct
  module T = Gtb.Make (A)

  let freqs = Gtb.freqs_of Gtb.default_conditions

  let reference ~sys ?start ?models circuit =
    match Dcop.solve_with_retry ?start ~sys ?models circuit with
    | Error _ -> None
    | Ok op ->
        Gtb.perf_of_bode Gtb.default_conditions
          (Ac.transfer_by_name ~sys circuit op ~out:"out" ~freqs)

  (* the reference of a circuit built for [p], in a fresh sys *)
  let fresh p =
    let circuit, _ = T.build p in
    reference ~sys:(Mna.sys circuit) circuit

  (* [n] designs drawn uniformly across the topology's ranges *)
  let designs seed n =
    let module Genome = Yield_ga.Genome in
    let enc = Genome.encoding A.param_ranges ~n_weights:0 in
    let rng = Rng.create seed in
    Array.init n (fun _ -> A.params_of_array (Genome.params enc (Genome.random enc rng)))

  let check name =
    let measured = ref 0 in
    List.iter
      (fun k ->
        let p = scaled A.params_to_array A.params_of_array A.default_params k in
        let got = T.evaluate p in
        if got <> None then incr measured;
        check_perf_bits (Printf.sprintf "%s evaluate x%g" name k) (fresh p) got)
      [ 1.; 0.6; 1.7; 2.5 ];
    List.iter
      (fun solver ->
        let s = T.session ~solver A.default_params in
        let circuit = T.session_circuit s and sys = T.session_sys s in
        let start =
          match solver with
          | Linsys.Dense -> None
          | Linsys.Csr -> Some (solved name (Dcop.solve ~sys circuit)).Dcop.x
        in
        let n = 24 and spec = Variation.default_spec in
        let rng i = Rng.create (700 + i) in
        let expect =
          Array.init n (fun i ->
              reference ~sys ?start ~models:(Variation.overrides spec (rng i) circuit) circuit)
        in
        let run pool = Pool.map pool ~n (fun i -> T.evaluate_in_session s ~spec ~rng:(rng i)) in
        let serial = Pool.with_pool ~jobs:1 run and parallel = Pool.with_pool ~jobs:2 run in
        Array.iteri
          (fun i e ->
            let what = Printf.sprintf "%s %s sample %d" name (Linsys.backend_name solver) i in
            if e <> None then incr measured;
            check_perf_bits (what ^ ", jobs 1") e serial.(i);
            check_perf_bits (what ^ ", jobs 2") e parallel.(i))
          expect)
      [ Linsys.Dense; Linsys.Csr ];
    Alcotest.(check bool) (name ^ ": most measured") true (!measured > 40)
end

let test_workspace_path_bits () =
  let module O = Path_bits (Yield_circuits.Ota) in
  let module M = Path_bits (Yield_circuits.Miller) in
  O.check "ota";
  M.check "miller"

(* Every evaluation sizes one shared template at assembly; each must give
   the bits of a circuit built for its design.  32 seeded designs per
   topology, evaluated in interleaved order (OTA, Miller, OTA again, one
   design after another) and from a two-domain pool with the topologies
   mixed, so a template that carried one design's sizes or state into
   the next would fail. *)
(* A design that moves more than its MOSFETs' sizes cannot be passed to
   the assembly as sizes: a Miller whose w1 also sets a load capacitor is
   refused at its first evaluation, never evaluated with the template's
   capacitor. *)
module Cap_sized = struct
  include Yield_circuits.Miller

  let add circuit ~prefix ~tech ~params ~inp ~inn ~out ~vdd ~vss =
    Yield_circuits.Miller.add circuit ~prefix ~tech ~params ~inp ~inn ~out ~vdd ~vss;
    Circuit.add_capacitor circuit ~name:(prefix ^ "CX") out "0"
      (params.Yield_circuits.Miller.w1 *. 1e-7)
end

let test_template_refuses_other_design () =
  let module T = Gtb.Make (Cap_sized) in
  match T.evaluate Yield_circuits.Miller.default_params with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a capacitor sized by w1 was evaluated from the template"

let test_template_path_bits () =
  let module O = Path_bits (Yield_circuits.Ota) in
  let module M = Path_bits (Yield_circuits.Miller) in
  let n = 32 in
  let ota = O.designs 2008 n and miller = M.designs 2009 n in
  let ota_ref = Array.map O.fresh ota and miller_ref = Array.map M.fresh miller in
  let measured = Array.fold_left (fun k p -> if p = None then k else k + 1) 0 in
  Alcotest.(check bool) "most designs measured" true
    (measured ota_ref > n / 2 && measured miller_ref > n / 2);
  for i = 0 to n - 1 do
    check_perf_bits (Printf.sprintf "ota design %d" i) ota_ref.(i) (O.T.evaluate ota.(i));
    check_perf_bits (Printf.sprintf "miller design %d" i) miller_ref.(i)
      (M.T.evaluate miller.(i));
    check_perf_bits (Printf.sprintf "ota design %d again" i) ota_ref.(i)
      (O.T.evaluate ota.(i))
  done;
  let mixed =
    Pool.with_pool ~jobs:2 (fun pool ->
        Pool.map pool ~n:(2 * n) (fun j ->
            if j mod 2 = 0 then O.T.evaluate ota.(j / 2) else M.T.evaluate miller.(j / 2)))
  in
  Array.iteri
    (fun j got ->
      let i = j / 2 in
      if j mod 2 = 0 then check_perf_bits (Printf.sprintf "ota design %d, jobs 2" i) ota_ref.(i) got
      else check_perf_bits (Printf.sprintf "miller design %d, jobs 2" i) miller_ref.(i) got)
    mixed

(* Transfers that alternate between the OTA's and the Miller's systems,
   over several sizings each, full and stopped, each against the same
   call in a fresh sys, whose workspaces are fresh. *)
let test_reuse_alternating () =
  let module Ota = Yield_circuits.Ota in
  let module Miller = Yield_circuits.Miller in
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  List.iter
    (fun backend ->
      let circuits k =
        [
          ( "ota",
            fst (Ota_tb.build (scaled Ota.params_to_array Ota.params_of_array Ota.default_params k)) );
          ( "miller",
            fst
              (Miller_tb.build
                 (scaled Miller.params_to_array Miller.params_of_array Miller.default_params k)) );
        ]
      in
      let shared =
        List.map (fun (name, c) -> (name, Mna.sys ~backend c)) (circuits 1.)
      in
      List.iter
        (fun k ->
          List.iter2
            (fun (topology, sys) (_, circuit) ->
              let name = Printf.sprintf "%s %s x%g" (Linsys.backend_name backend) topology k in
              let fresh () = Mna.sys ~backend circuit in
              let op = solved name (Dcop.solve ~sys circuit) in
              check_op_bits (name ^ " dc") (solved name (Dcop.solve ~sys:(fresh ()) circuit)) op;
              List.iter
                (fun stopped ->
                  let transfer sys =
                    let stop = if stopped then Gtb.sweep_stop else fun _ _ -> max_int in
                    Ac.transfer_by_name ~sys ~stop circuit op ~out:"out" ~freqs
                  in
                  check_bode_bits
                    (Printf.sprintf "%s ac%s" name (if stopped then " stopped" else ""))
                    (transfer (fresh ())) (transfer sys))
                [ false; true ])
            shared (circuits k))
        [ 1.; 0.6; 1.7; 1.; 2.5 ])
    [ Linsys.Dense; Linsys.Csr ]

(* in -R1- a -R2- b, driven at in: with R2 of 1e-150 ohm, b's pivot cancels
   to exactly zero, in DC and AC alike; with 1 kohm the same topology
   solves *)
let divider r2 =
  let c = Circuit.create () in
  Circuit.add_vsource c ~name:"V1" ~ac:1. "in" "0" 1.;
  Circuit.add_resistor c ~name:"R1" "in" "a" 1e3;
  Circuit.add_resistor c ~name:"R2" "a" "b" r2;
  c

(* A transfer right after one whose factorisation raised Lu.Singular, and
   a DC solve right after one that did not converge, each in the sys
   whose workspace the failed call used, against a fresh sys. *)
let test_reuse_after_failure () =
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  List.iter
    (fun backend ->
      let name = Linsys.backend_name backend in
      let bad = divider 1e-150 and good = divider 1e3 in
      let sys = Mna.sys ~backend good in
      let layout = Mna.sys_layout sys in
      let zero = { Dcop.x = Array.make (Mna.size layout) 0.; layout; mos_ops = []; iterations = 0 } in
      let transfer sys c = Ac.transfer_by_name ~sys c zero ~out:"b" ~freqs in
      (match transfer sys bad with
      | exception Lu.Singular _ -> ()
      | _ -> Alcotest.failf "%s: the 1e-150 ohm divider did not break down" name);
      check_bode_bits (name ^ " transfer after a breakdown")
        (transfer (Mna.sys ~backend good) good) (transfer sys good);
      (match Dcop.solve ~sys bad with
      | Error (Dcop.No_convergence _) -> ()
      | _ -> Alcotest.failf "%s: the 1e-150 ohm divider converged" name);
      check_op_bits (name ^ " divider dc after a failed solve")
        (solved name (Dcop.solve ~sys:(Mna.sys ~backend good) good))
        (solved name (Dcop.solve ~sys good));
      (* an OTA solve cut short at two iterations a run fails the whole
         chain, and leaves its iterates in the workspace *)
      let circuit, _ = Ota_tb.build Yield_circuits.Ota.default_params in
      let sys = Mna.sys ~backend circuit in
      let short = { Dcop.default_options with Dcop.max_iterations = 2 } in
      (match Dcop.solve ~options:short ~sys circuit with
      | Error (Dcop.No_convergence _) -> ()
      | _ -> Alcotest.failf "%s: two iterations converged" name);
      check_op_bits (name ^ " ota dc after a failed solve")
        (solved name (Dcop.solve ~sys:(Mna.sys ~backend circuit) circuit))
        (solved name (Dcop.solve ~sys circuit)))
    [ Linsys.Dense; Linsys.Csr ]

(* A call made while the sys's workspace is borrowed (here by the test
   itself) gets one of its own, with the same bits. *)
let test_reuse_nested () =
  let freqs = Gtb.freqs_of Gtb.default_conditions in
  let circuit, _ = Ota_tb.build Yield_circuits.Ota.default_params in
  List.iter
    (fun backend ->
      let name = Linsys.backend_name backend in
      let sys = Mna.sys ~backend circuit in
      let reference = solved name (Dcop.solve ~sys:(Mna.sys ~backend circuit) circuit) in
      let nested = Mna.with_dc sys (fun _ -> Mna.with_ac sys (fun _ -> Dcop.solve ~sys circuit)) in
      check_op_bits (name ^ " nested dc") reference (solved name nested);
      let transfer sys = Ac.transfer_by_name ~sys circuit reference ~out:"out" ~freqs in
      let expect = transfer (Mna.sys ~backend circuit) in
      check_bode_bits (name ^ " nested ac") expect
        (Mna.with_ac sys (fun _ -> Mna.with_dc sys (fun _ -> transfer sys)));
      check_bode_bits (name ^ " after the nested calls") expect (transfer sys))
    [ Linsys.Dense; Linsys.Csr ]

(* A seeded population evaluated at jobs = 2, both domains borrowing from
   the one cached sys, against jobs = 1; and csr session samples the
   same way. *)
let test_reuse_two_domains () =
  let module Ota = Yield_circuits.Ota in
  let module Genome = Yield_ga.Genome in
  let enc = Genome.encoding Ota.param_ranges ~n_weights:0 in
  let rng = Rng.create 2008 in
  let pop =
    Array.init 24 (fun _ -> Ota.params_of_array (Genome.params enc (Genome.random enc rng)))
  in
  let evaluate pool = Pool.map pool ~n:(Array.length pop) (fun i -> Ota_tb.evaluate pop.(i)) in
  let serial = Pool.with_pool ~jobs:1 evaluate and parallel = Pool.with_pool ~jobs:2 evaluate in
  if Array.for_all (fun p -> p = None) serial then Alcotest.fail "no design evaluated";
  Array.iteri (fun i p -> check_perf_bits (Printf.sprintf "design %d" i) p parallel.(i)) serial;
  let s = Ota_tb.session ~solver:Linsys.Csr Ota.default_params in
  let sample pool =
    Pool.map pool ~n:24 (fun i ->
        Ota_tb.evaluate_in_session s ~spec:Variation.default_spec ~rng:(Rng.create (300 + i)))
  in
  let serial = Pool.with_pool ~jobs:1 sample and parallel = Pool.with_pool ~jobs:2 sample in
  Array.iteri (fun i p -> check_perf_bits (Printf.sprintf "csr sample %d" i) p parallel.(i)) serial

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
        Alcotest.test_case "dense real = Mat/Lu" `Quick
          test_dense_real_matches_mat;
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
        Alcotest.test_case "csr sweep entry = point-by-point cfactor" `Quick
          test_csr_sweep_bit_exact;
        Alcotest.test_case "dense sweep entry = point-by-point solve_with" `Quick
          test_dense_sweep_bit_exact;
        Alcotest.test_case "dense sweep fixtures = solve_entry" `Quick
          test_dense_sweep_fixtures;
        Alcotest.test_case "dense plan grown by two domains" `Quick
          test_dense_plan_two_domains;
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
        Alcotest.test_case "dense sweep = solve_entry (ota, miller)" `Quick
          test_circuit_dense_sweep;
        Alcotest.test_case "dense sweep points allocate nothing" `Quick
          test_dense_sweep_allocation;
        Alcotest.test_case "solves and transfers allocate their answers" `Quick
          test_solves_allocate_answers;
        Alcotest.test_case "an evaluation allocates its answer" `Quick
          test_evaluate_allocation;
        Alcotest.test_case "a converged DC solve allocates its answer" `Quick
          test_with_solution_allocation;
        Alcotest.test_case "draws allocate only their result" `Quick
          test_draws_allocate_results;
        Alcotest.test_case "overrides allocate only the models" `Quick
          test_overrides_allocation;
        Alcotest.test_case "a csr session sample allocates its perf" `Quick
          test_session_sample_allocation;
        Alcotest.test_case "workspace path = perf_of_bode of transfer" `Quick
          test_workspace_path_bits;
        Alcotest.test_case "template evaluations = fresh circuits" `Quick
          test_template_path_bits;
        Alcotest.test_case "template refuses a design beyond sizes" `Quick
          test_template_refuses_other_design;
        Alcotest.test_case "reused workspaces: ota and miller alternate" `Quick
          test_reuse_alternating;
        Alcotest.test_case "reused workspaces: after a failure" `Quick
          test_reuse_after_failure;
        Alcotest.test_case "reused workspaces: nested borrower" `Quick
          test_reuse_nested;
        Alcotest.test_case "reused workspaces: two domains" `Quick
          test_reuse_two_domains;
        Alcotest.test_case "complex refactor bit-exact" `Quick
          test_complex_refactor_bit_exact;
        Alcotest.test_case "transient dense = csr" `Quick
          test_circuit_tran_dense_csr;
        Alcotest.test_case "session pattern cache" `Quick
          test_session_pattern_cache;
        Alcotest.test_case "dense pattern built at the first sweep" `Quick
          test_dense_pattern_deferred;
        Alcotest.test_case "ota overrides bit-identical" `Quick
          test_ota_overrides_bit_identical;
        Alcotest.test_case "miller overrides bit-identical" `Quick
          test_miller_overrides_bit_identical;
        Alcotest.test_case "evaluate cached sys = fresh sys" `Quick
          test_evaluate_cached_sys_bit_identical;
      ] );
  ]
