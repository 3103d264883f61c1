(* Solver-agnostic linear-system seam: see linsys.mli for the contract.

   The Dense backend must stay byte-identical to the historical direct
   Mat/Lu/Cmat call sequence (reset is Mat.fill 0, solve is
   Lu.solve (Lu.factor m) b, the complex factor is
   Cmat.of_real ~imag_scale:omega then Cmat.solve per right-hand side):
   the same floating-point operations in the same order on every entry
   that can change.  Within that contract it reuses buffers (the real
   workspace factors into one Lu buffer; the complex one fills one G + jwC
   buffer per factor and each solve eliminates a copy of it) and skips the
   exactly-zero columns of each pivot row in the matrix update.  Skipping
   is exact because m -. (f *. 0.) is m for a finite multiplier f unless m
   is -0, and no matrix entry here is -0: Mat.fill 0., +. onto +0 and exact
   cancellation only produce +0, so G and C hold none, and omega *. C holds
   none when omega > 0 and no product underflows, which [pencil] checks.
   Right-hand sides and back substitution are never skipped: a source of
   value 0 can put a -0 there.

   Each backend's [sweep] entry answers, at its output unknown, the bits
   its [factor] path answers: dense through the same Cmat elimination,
   with back substitution stopped at the output row, csr through lanes
   that each replay [cfactor]'s operations in its order.

   The Csr backend must stay bit-identical to its reference copy in the
   tests (test/csr_ref.ml).  [Csr.analyse] compiles the elimination of the
   topology's fill pattern into slot-index runs once, and every Newton
   solve and every AC factor replays them in place on the workspace's
   value slots: the same operations, skips and pivot tests as the
   reference's scatter-row elimination, none of its index work.

   Both backends' workspaces expose the arrays their stamps accumulate
   into, indexed by [slot]: a dense slot is the row-major i*n + j of the
   matrix the factorisation reads, a csr slot the analysed pattern's.
   [add] is [slot] plus one [+.], so an engine that resolves its slots
   once (Mna's stamp plan) and adds into the arrays directly accumulates
   the same values in the same order. *)

module Pattern = struct
  (* [strong] rows hold the entries assembled to a nonzero value by every
     analysis sharing the pattern; weak entries ([add_weak]: capacitor-only
     positions, numerically zero in a DC assembly) are structurally present
     but must not carry a pivot — the csr transversal prefers strong
     entries so the no-pivoting factorisation never lands on one. *)
  type t = { n : int; rows : int array array; strong : int array array }

  type builder = { bn : int; seen : (int, bool) Hashtbl.t }

  let builder n =
    if n < 0 then invalid_arg "Linsys.Pattern.builder";
    { bn = n; seen = Hashtbl.create (8 * (n + 1)) }

  let add b i j =
    if i < 0 || j < 0 || i >= b.bn || j >= b.bn then
      invalid_arg "Linsys.Pattern.add: entry out of range";
    Hashtbl.replace b.seen ((i * b.bn) + j) true

  let add_weak b i j =
    if i < 0 || j < 0 || i >= b.bn || j >= b.bn then
      invalid_arg "Linsys.Pattern.add_weak: entry out of range";
    let key = (i * b.bn) + j in
    (* never downgrade a strong entry *)
    if not (Hashtbl.mem b.seen key) then Hashtbl.replace b.seen key false

  let build_count = Atomic.make 0

  let builds () = Atomic.get build_count

  let build b =
    Atomic.incr build_count;
    let per_row = Array.make b.bn [] in
    let strong_per_row = Array.make b.bn [] in
    Hashtbl.iter
      (fun key strong ->
        let i = key / b.bn and j = key mod b.bn in
        per_row.(i) <- j :: per_row.(i);
        if strong then strong_per_row.(i) <- j :: strong_per_row.(i))
      b.seen;
    let sorted = Array.map (fun cols -> Array.of_list (List.sort_uniq compare cols)) in
    { n = b.bn; rows = sorted per_row; strong = sorted strong_per_row }

  let size p = p.n

  let rows p = p.rows

  let strong_rows p = p.strong

  let mem p i j =
    i >= 0 && j >= 0 && i < p.n && j < p.n
    && Array.exists (fun c -> c = j) p.rows.(i)
end

(* a dense system needs only its size: the backend ignores structure *)
type t = Dense_sys of int | Csr_sys of Csr.symbolic

(* an entry outside [0, n) would alias an entry of a neighbouring row, so
   it is refused *)
let dense_slot n i j =
  if i < 0 || j < 0 || i >= n || j >= n then
    invalid_arg "Linsys: entry outside the system";
  (i * n) + j

let slot t i j =
  match t with
  | Dense_sys n -> dense_slot n i j
  | Csr_sys sym -> Csr.slot sym i j

type real = {
  rn : int;
  owner : t;
  values : float array;
  reset : unit -> unit;
  add : int -> int -> float -> unit;
  solve : float array -> float array;
}

type complex_sys = {
  cn : int;
  cowner : t;
  gvalues : float array;
  cvalues : float array;
  creset : unit -> unit;
  add_g : int -> int -> float -> unit;
  add_c : int -> int -> float -> unit;
  factor : omega:float -> Complex.t array -> Complex.t array;
  sweep :
    Complex.t array -> freqs:float array -> out:int -> Complex.t array ->
    (int -> int -> unit);
}

module Dense_backend = struct
  (* wrapped in 3-ary closures below: a partial application would put a
     currying wrapper in front of every stamp *)
  let add_to (m : Mat.t) i j x =
    let d = m.data and k = dense_slot m.cols i j in
    d.(k) <- d.(k) +. x

  let real owner n =
    let m = Mat.create n n in
    let f = Lu.create n in
    {
      rn = n;
      owner;
      values = m.data;
      reset = (fun () -> Mat.fill m 0.);
      add = (fun i j x -> add_to m i j x);
      solve =
        (fun b ->
          Lu.factor_into f ~skip_zeros:true m;
          Lu.solve f b);
    }

  (* [a] <- g + j omega c, as Cmat.of_real; true when [a] is -0-free.
     Inlined, so a sweep point's omega is never boxed. *)
  let[@inline] pencil (a : Cmat.t) ~omega (g : Mat.t) (c : Mat.t) =
    let re = a.re and im = a.im and gd = g.data and cd = c.data in
    let exact = ref (omega > 0.) in
    for k = 0 to Array.length re - 1 do
      re.(k) <- gd.(k);
      let v = omega *. cd.(k) in
      im.(k) <- v;
      if v = 0. && cd.(k) <> 0. then exact := false
    done;
    !exact

  let complex owner n =
    let g = Mat.create n n in
    let c = Mat.create n n in
    let a = Cmat.create n n in
    let w = Cmat.work n in
    (* the sweep's right-hand side, split *)
    let br = Array.make n 0. and bi = Array.make n 0. in
    (* one frequency of a sweep: Cmat's elimination, with back
       substitution stopped at the output row *)
    let point freqs out response k =
      let skip_zeros = pencil a ~omega:(2. *. Float.pi *. freqs.(k)) g c in
      response.(k) <- Cmat.solve_entry w ~skip_zeros a ~re:br ~im:bi out
    in
    {
      cn = n;
      cowner = owner;
      gvalues = g.data;
      cvalues = c.data;
      creset =
        (fun () ->
          Mat.fill g 0.;
          Mat.fill c 0.);
      add_g = (fun i j x -> add_to g i j x);
      add_c = (fun i j x -> add_to c i j x);
      factor =
        (fun ~omega ->
          let skip_zeros = pencil a ~omega g c in
          fun rhs -> Cmat.solve_with w ~skip_zeros a rhs);
      sweep =
        (fun rhs ~freqs ~out response ->
          if Array.length rhs <> n then invalid_arg "Linsys: sweep dimension mismatch";
          for i = 0 to n - 1 do
            br.(i) <- rhs.(i).Complex.re;
            bi.(i) <- rhs.(i).Complex.im
          done;
          fun k k' ->
            point freqs out response k;
            if k' >= 0 then point freqs out response k');
    }
end

module Csr_backend = struct
  (* 3-ary stamp closures, as in Dense_backend *)
  let real owner sym =
    let w = Csr.rwork sym in
    {
      rn = Csr.size sym;
      owner;
      values = Csr.rvalues w;
      reset = (fun () -> Csr.rreset w);
      add = (fun i j x -> Csr.radd w i j x);
      solve = (fun b -> Csr.rsolve w b);
    }

  let complex owner sym =
    let w = Csr.cwork sym in
    {
      cn = Csr.size sym;
      cowner = owner;
      gvalues = Csr.gvalues w;
      cvalues = Csr.cvalues w;
      creset = (fun () -> Csr.creset w);
      add_g = (fun i j x -> Csr.cadd_g w i j x);
      add_c = (fun i j x -> Csr.cadd_c w i j x);
      factor = (fun ~omega -> Csr.cfactor w ~omega);
      sweep = (fun rhs ~freqs ~out response -> Csr.csweep w rhs ~freqs ~out response);
    }
end

type backend = Dense | Csr

let backend_name = function Dense -> "dense" | Csr -> "csr"

let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "dense" -> Some Dense
  | "csr" | "sparse" -> Some Csr
  | _ -> None

let backend_names = [ "dense"; "csr" ]

let compile backend pattern =
  match backend with
  | Dense -> Dense_sys (Pattern.size pattern)
  | Csr ->
      Csr_sys
        (Csr.analyse
           ~strong_rows:(Pattern.strong_rows pattern)
           ~n:(Pattern.size pattern) (Pattern.rows pattern))

let dense_of_size n = Dense_sys n

let real t =
  match t with
  | Dense_sys n -> Dense_backend.real t n
  | Csr_sys sym -> Csr_backend.real t sym

let complex t =
  match t with
  | Dense_sys n -> Dense_backend.complex t n
  | Csr_sys sym -> Csr_backend.complex t sym

let name = function Dense_sys _ -> "dense" | Csr_sys _ -> "csr"

let size = function Dense_sys n -> n | Csr_sys sym -> Csr.size sym
