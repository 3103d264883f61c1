(* Sparse LU over a compressed-sparse-row filled pattern.

   The analysis is split the way the Monte Carlo loop needs it: [analyse]
   runs once per circuit topology (row matching for a zero-free diagonal,
   minimum-degree ordering, symbolic fill) and then compiles the
   elimination itself: the up-looking LU of the filled pattern, walked once,
   leaves a schedule of slot indices (each L entry, its pivot's diagonal
   slot, and the run of (target, source) slot pairs its row update
   writes).  The per-sample work — [rreset]/[radd]/[rsolve], and the
   complex [G + jwC] variant — only touches the numeric value slots of
   that fixed pattern, and each factorisation replays the schedule in
   place.  No numeric pivoting is
   performed (the pivot order is the symbolic one), so a vanishing pivot
   raises {!Lu.Singular} exactly like the dense path, and one
   iterative-refinement step against the assembled values recovers the
   accuracy partial pivoting would have bought on the diagonally-weak MNA
   systems this solves. *)

module ISet = Set.Make (Int)

let pivot_floor = 1e-300

(* mag2 floor matching Cmat.solve's complex pivot test *)
let cpivot_floor = 1e-280

type symbolic = {
  n : int;
  rowperm : int array;
      (* factored row i holds original row [rowperm.(i)] *)
  colperm : int array;
      (* factored column j is original column [colperm.(j)] *)
  f_rowptr : int array;  (* n + 1 entries into f_cols *)
  f_cols : int array;  (* filled pattern, sorted within each row *)
  f_diag : int array;  (* slot of the diagonal entry of each row *)
  o_rowptr : int array;  (* n + 1 entries into o_cols / o_slots *)
  o_cols : int array;  (* original pattern, sorted within each row *)
  o_slots : int array;  (* value slot of each original entry *)
  (* the compiled elimination.  Row i's L entries (i, k) are the slots
     [f_rowptr.(i)] .. [f_diag.(i) - 1], in ascending k. *)
  l_piv : int array;
      (* slot of pivot (k, k) for each L slot (i, k); -1 on other slots *)
  u_ptr : int array;
      (* m + 1 entries: L slot (i, k) updates the pairs [u_ptr.(slot)] ..
         [u_ptr.(slot + 1) - 1], empty for other slots *)
  u_tgt : int array;  (* slot (i, j) for each j in row k's U tail, ... *)
  u_src : int array;  (* ... and the slot (k, j) it subtracts from it *)
}

let size s = s.n

let nnz s = Array.length s.f_cols

(* index of [x] in the sorted slice [a.(lo) .. a.(hi)], or -1 *)
let rec bsearch (a : int array) (x : int) lo hi =
  if lo > hi then -1
  else begin
    let mid = (lo + hi) / 2 in
    let c = a.(mid) in
    if c = x then mid
    else if c < x then bsearch a x (mid + 1) hi
    else bsearch a x lo (mid - 1)
  end

(* maximum transversal: match every column to a distinct row holding a
   structural entry in it, via augmenting paths.  [rows.(i)] lists the
   columns of original row i.  The matching runs in two phases: first over
   [strong_rows] only (entries guaranteed numerically nonzero in every
   assembly), then — for any column the strong entries cannot cover — over
   the full pattern.  A pivot drawn from a weak entry (e.g. a
   capacitor-only position, zero in a DC assembly) would make the
   no-pivoting factorisation numerically singular, so weak entries are a
   last resort for structural completeness only. *)
let match_rows ~n ~rows ~strong_rows =
  let adj_of rs =
    let cols_adj = Array.make n [] in
    Array.iteri
      (fun i cols ->
        Array.iter (fun j -> cols_adj.(j) <- i :: cols_adj.(j)) cols)
      rs;
    cols_adj
  in
  let row_of_col = Array.make n (-1) in
  let col_of_row = Array.make n (-1) in
  let visited = Array.make n false in
  let run cols_adj on_fail =
    let rec augment j =
      List.exists
        (fun i ->
          if visited.(i) then false
          else begin
            visited.(i) <- true;
            if col_of_row.(i) < 0 || augment col_of_row.(i) then begin
              col_of_row.(i) <- j;
              row_of_col.(j) <- i;
              true
            end
            else false
          end)
        cols_adj.(j)
    in
    for j = 0 to n - 1 do
      if row_of_col.(j) < 0 then begin
        Array.fill visited 0 n false;
        if not (augment j) then on_fail j
      end
    done
  in
  run (adj_of strong_rows) (fun _ -> ());
  (* structurally singular when even the full pattern cannot put an entry
     on diagonal j *)
  run (adj_of rows) (fun j -> raise (Lu.Singular j));
  row_of_col

(* greedy minimum-degree on the symmetrised pattern: eliminate the vertex of
   smallest degree, then connect its remaining neighbours into a clique
   (the fill its elimination creates). *)
let min_degree ~n adj =
  let order = Array.make n 0 in
  let eliminated = Array.make n false in
  for step = 0 to n - 1 do
    let best = ref (-1) and best_deg = ref max_int in
    for v = 0 to n - 1 do
      if not eliminated.(v) then begin
        let d = ISet.cardinal adj.(v) in
        if d < !best_deg then begin
          best := v;
          best_deg := d
        end
      end
    done;
    let v = !best in
    order.(step) <- v;
    eliminated.(v) <- true;
    let neighbours = ISet.elements adj.(v) in
    List.iter
      (fun u ->
        adj.(u) <- ISet.remove v adj.(u);
        List.iter
          (fun w -> if w <> u then adj.(u) <- ISet.add w adj.(u))
          neighbours)
      neighbours
  done;
  order

(* Walk the up-looking elimination of the filled pattern once and record it
   as slot indices: for each L slot (i, k), the slot of pivot (k, k) and the
   (target, source) pairs of its row update, row k's U tail (k, j) mapped
   onto row i's (i, j).  Replaying the pairs in place performs the same
   floating-point operations, in the same order on every slot, as an
   elimination through a dense scatter row: the update of (i, j) by pivot k
   lands on the slot the scatter row would have gathered it back from.  The
   schedule holds one factorisation's update count of pairs. *)
let compile ~n ~f_rowptr ~f_cols ~f_diag =
  let m = Array.length f_cols in
  let l_piv = Array.make m (-1) in
  let u_ptr = Array.make (m + 1) 0 in
  for i = 0 to n - 1 do
    for idx = f_rowptr.(i) to f_rowptr.(i + 1) - 1 do
      let run =
        if idx < f_diag.(i) then begin
          let k = f_cols.(idx) in
          l_piv.(idx) <- f_diag.(k);
          f_rowptr.(k + 1) - f_diag.(k) - 1
        end
        else 0
      in
      u_ptr.(idx + 1) <- u_ptr.(idx) + run
    done
  done;
  let u_tgt = Array.make u_ptr.(m) 0 and u_src = Array.make u_ptr.(m) 0 in
  (* slot of (i, j) in the row being compiled, -1 off its pattern *)
  let pos = Array.make n (-1) in
  for i = 0 to n - 1 do
    let lo = f_rowptr.(i) and hi = f_rowptr.(i + 1) - 1 in
    for idx = lo to hi do
      pos.(f_cols.(idx)) <- idx
    done;
    for idx = lo to f_diag.(i) - 1 do
      let k = f_cols.(idx) in
      let p = ref u_ptr.(idx) in
      for jdx = f_diag.(k) + 1 to f_rowptr.(k + 1) - 1 do
        let t = pos.(f_cols.(jdx)) in
        if t < 0 then invalid_arg "Csr.analyse: fill pattern broken";
        u_tgt.(!p) <- t;
        u_src.(!p) <- jdx;
        incr p
      done
    done;
    for idx = lo to hi do
      pos.(f_cols.(idx)) <- -1
    done
  done;
  (l_piv, u_ptr, u_tgt, u_src)

let analyse ?strong_rows ~n rows =
  let strong_rows = Option.value strong_rows ~default:rows in
  if Array.length rows <> n then invalid_arg "Csr.analyse: ragged pattern";
  if Array.length strong_rows <> n then
    invalid_arg "Csr.analyse: ragged strong pattern";
  if n = 0 then
    {
      n;
      rowperm = [||];
      colperm = [||];
      f_rowptr = [| 0 |];
      f_cols = [||];
      f_diag = [||];
      o_rowptr = [| 0 |];
      o_cols = [||];
      o_slots = [||];
      l_piv = [||];
      u_ptr = [| 0 |];
      u_tgt = [||];
      u_src = [||];
    }
  else begin
    let row_of_col = match_rows ~n ~rows ~strong_rows in
    (* B.(i) = pattern of A row [row_of_col.(i)]: zero-free diagonal *)
    let b_rows = Array.init n (fun i -> rows.(row_of_col.(i))) in
    let adj = Array.make n ISet.empty in
    Array.iteri
      (fun i cols ->
        Array.iter
          (fun j ->
            if i <> j then begin
              adj.(i) <- ISet.add j adj.(i);
              adj.(j) <- ISet.add i adj.(j)
            end)
          cols)
      b_rows;
    let order = min_degree ~n adj in
    let inv_order = Array.make n 0 in
    Array.iteri (fun pos v -> inv_order.(v) <- pos) order;
    let rowperm = Array.init n (fun i -> row_of_col.(order.(i))) in
    let colperm = Array.copy order in
    (* symbolic fill, up-looking: the final pattern of permuted row i is its
       assembled pattern united with the above-diagonal tails of every
       earlier row it eliminates against, in ascending pivot order *)
    let fill = Array.make n ISet.empty in
    for i = 0 to n - 1 do
      let start =
        Array.fold_left
          (fun acc j -> ISet.add inv_order.(j) acc)
          ISet.empty
          b_rows.(order.(i))
      in
      let pat = ref start in
      let todo = ref (ISet.filter (fun k -> k < i) start) in
      while not (ISet.is_empty !todo) do
        let k = ISet.min_elt !todo in
        todo := ISet.remove k !todo;
        ISet.iter
          (fun j ->
            if j > k && not (ISet.mem j !pat) then begin
              pat := ISet.add j !pat;
              if j < i then todo := ISet.add j !todo
            end)
          fill.(k)
      done;
      fill.(i) <- !pat
    done;
    let f_rowptr = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      f_rowptr.(i + 1) <- f_rowptr.(i) + ISet.cardinal fill.(i)
    done;
    let f_cols = Array.make f_rowptr.(n) 0 in
    let f_diag = Array.make n 0 in
    for i = 0 to n - 1 do
      let idx = ref f_rowptr.(i) in
      ISet.iter
        (fun j ->
          f_cols.(!idx) <- j;
          if j = i then f_diag.(i) <- !idx;
          incr idx)
        fill.(i)
    done;
    (* assembly map: the original pattern in the same compressed-row form,
       each entry carrying its value slot in the permuted, filled pattern *)
    let inv_rowperm = Array.make n 0 in
    Array.iteri (fun i orig -> inv_rowperm.(orig) <- i) rowperm;
    let o_rows =
      Array.map
        (fun cols ->
          Array.of_list (List.sort_uniq Int.compare (Array.to_list cols)))
        rows
    in
    let o_rowptr = Array.make (n + 1) 0 in
    Array.iteri
      (fun i cols -> o_rowptr.(i + 1) <- o_rowptr.(i) + Array.length cols)
      o_rows;
    let o_cols = Array.concat (Array.to_list o_rows) in
    let o_slots = Array.make (Array.length o_cols) 0 in
    for orig_i = 0 to n - 1 do
      let ri = inv_rowperm.(orig_i) in
      for k = o_rowptr.(orig_i) to o_rowptr.(orig_i + 1) - 1 do
        let slot =
          bsearch f_cols inv_order.(o_cols.(k)) f_rowptr.(ri)
            (f_rowptr.(ri + 1) - 1)
        in
        if slot < 0 then invalid_arg "Csr.analyse: fill pattern broken";
        o_slots.(k) <- slot
      done
    done;
    let l_piv, u_ptr, u_tgt, u_src = compile ~n ~f_rowptr ~f_cols ~f_diag in
    {
      n;
      rowperm;
      colperm;
      f_rowptr;
      f_cols;
      f_diag;
      o_rowptr;
      o_cols;
      o_slots;
      l_piv;
      u_ptr;
      u_tgt;
      u_src;
    }
  end

(* value slot of original entry (i, j): a search of row i of the original
   pattern, so a column outside [0, n) is simply not found; allocates
   nothing *)
let slot s i j =
  let k =
    if i < 0 || i >= s.n then -1
    else bsearch s.o_cols j s.o_rowptr.(i) (s.o_rowptr.(i + 1) - 1)
  in
  if k < 0 then invalid_arg "Csr: entry outside the analysed pattern";
  s.o_slots.(k)

(* ---------- real numeric kernel ---------- *)

(* Every buffer a factorisation or solve needs lives in the workspace, so
   [rsolve] allocates only the solution it returns.  Each call overwrites
   [luv], [y] and [r] in full before reading them, so a raised Lu.Singular
   leaves nothing a later call could see. *)
type rwork = {
  sym : symbolic;
  values : float array;  (* assembled entries, by F slot *)
  luv : float array;  (* factor workspace, same slots *)
  y : float array;  (* permuted solution, length n *)
  r : float array;  (* refinement residual and correction, length n *)
}

let rwork sym =
  let m = Array.length sym.f_cols and n = sym.n in
  {
    sym;
    values = Array.make m 0.;
    luv = Array.make m 0.;
    y = Array.make n 0.;
    r = Array.make n 0.;
  }

let rvalues w = w.values

let rreset w = Array.fill w.values 0 (Array.length w.values) 0.

let radd w i j v =
  let k = slot w.sym i j in
  w.values.(k) <- w.values.(k) +. v

(* factor [values] into [luv] (packed LU over the filled pattern, no
   pivoting) by replaying the compiled elimination in place.
   @raise Lu.Singular on a vanishing pivot. *)
let refactor w =
  let s = w.sym in
  let rp = s.f_rowptr and diag = s.f_diag in
  let piv = s.l_piv and up = s.u_ptr and tgt = s.u_tgt and src = s.u_src in
  let luv = w.luv in
  Array.blit w.values 0 luv 0 (Array.length luv);
  for i = 0 to s.n - 1 do
    for idx = rp.(i) to diag.(i) - 1 do
      let lik = luv.(idx) /. luv.(piv.(idx)) in
      luv.(idx) <- lik;
      if lik <> 0. then
        for p = up.(idx) to up.(idx + 1) - 1 do
          let t = tgt.(p) in
          luv.(t) <- luv.(t) -. (lik *. luv.(src.(p)))
        done
    done;
    if Float.abs luv.(diag.(i)) < pivot_floor then raise (Lu.Singular i)
  done

(* one triangular solve of the factored system; [y] is in permuted row
   coordinates on entry and permuted column coordinates on exit *)
let lu_apply w y =
  let s = w.sym in
  let n = s.n in
  let rp = s.f_rowptr and cols = s.f_cols and diag = s.f_diag in
  let luv = w.luv in
  for i = 0 to n - 1 do
    let acc = ref y.(i) in
    for idx = rp.(i) to diag.(i) - 1 do
      acc := !acc -. (luv.(idx) *. y.(cols.(idx)))
    done;
    y.(i) <- !acc
  done;
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for idx = diag.(i) + 1 to rp.(i + 1) - 1 do
      acc := !acc -. (luv.(idx) *. y.(cols.(idx)))
    done;
    y.(i) <- !acc /. luv.(diag.(i))
  done

let rsolve w b =
  let s = w.sym in
  let n = s.n in
  if Array.length b <> n then invalid_arg "Csr.rsolve: dimension mismatch";
  refactor w;
  let y = w.y and r = w.r in
  for i = 0 to n - 1 do
    y.(i) <- b.(s.rowperm.(i))
  done;
  lu_apply w y;
  (* one refinement step against the assembled (unfactored) values: recovers
     the accuracy numeric pivoting would have provided *)
  for i = 0 to n - 1 do
    let acc = ref b.(s.rowperm.(i)) in
    for idx = s.f_rowptr.(i) to s.f_rowptr.(i + 1) - 1 do
      acc := !acc -. (w.values.(idx) *. y.(s.f_cols.(idx)))
    done;
    r.(i) <- !acc
  done;
  lu_apply w r;
  for i = 0 to n - 1 do
    y.(i) <- y.(i) +. r.(i)
  done;
  let x = Array.make n 0. in
  for i = 0 to n - 1 do
    x.(s.colperm.(i)) <- y.(i)
  done;
  x

(* ---------- complex numeric kernel (G + jwC) ---------- *)

(* As for [rwork]: [cfactor] overwrites [lre]/[lim] in full, and each
   solve overwrites the four vectors it uses, so a factorisation and its
   solves allocate only the solver closure and the solutions. *)
type cwork = {
  csym : symbolic;
  gv : float array;  (* assembled G, by F slot *)
  cv : float array;  (* assembled C, by F slot *)
  lre : float array;  (* factors of G + jwC, same slots *)
  lim : float array;
  yr : float array;  (* permuted solution, length n *)
  yi : float array;
  rr : float array;  (* refinement residual and correction, length n *)
  ri : float array;
}

let cwork sym =
  let m = Array.length sym.f_cols and n = sym.n in
  let vec k = Array.make k 0. in
  {
    csym = sym;
    gv = vec m;
    cv = vec m;
    lre = vec m;
    lim = vec m;
    yr = vec n;
    yi = vec n;
    rr = vec n;
    ri = vec n;
  }

let gvalues w = w.gv

let cvalues w = w.cv

let creset w =
  Array.fill w.gv 0 (Array.length w.gv) 0.;
  Array.fill w.cv 0 (Array.length w.cv) 0.

let cadd_g w i j v =
  let k = slot w.csym i j in
  w.gv.(k) <- w.gv.(k) +. v

let cadd_c w i j v =
  let k = slot w.csym i j in
  w.cv.(k) <- w.cv.(k) +. v

let clu_apply s lre lim yr yi =
  let n = s.n in
  let rp = s.f_rowptr and cols = s.f_cols and diag = s.f_diag in
  for i = 0 to n - 1 do
    let ar = ref yr.(i) and ai = ref yi.(i) in
    for idx = rp.(i) to diag.(i) - 1 do
      let j = cols.(idx) in
      let lr = lre.(idx) and li = lim.(idx) in
      ar := !ar -. ((lr *. yr.(j)) -. (li *. yi.(j)));
      ai := !ai -. ((lr *. yi.(j)) +. (li *. yr.(j)))
    done;
    yr.(i) <- !ar;
    yi.(i) <- !ai
  done;
  for i = n - 1 downto 0 do
    let ar = ref yr.(i) and ai = ref yi.(i) in
    for idx = diag.(i) + 1 to rp.(i + 1) - 1 do
      let j = cols.(idx) in
      let ur = lre.(idx) and ui = lim.(idx) in
      ar := !ar -. ((ur *. yr.(j)) -. (ui *. yi.(j)));
      ai := !ai -. ((ur *. yi.(j)) +. (ui *. yr.(j)))
    done;
    let pr = lre.(diag.(i)) and pi = lim.(diag.(i)) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    yr.(i) <- ((!ar *. pr) +. (!ai *. pi)) /. pmag;
    yi.(i) <- ((!ai *. pr) -. (!ar *. pi)) /. pmag
  done

(* solve the factored G + jwC for one right-hand side *)
let csolve w ~omega b =
  let s = w.csym in
  let n = s.n in
  if Array.length b <> n then invalid_arg "Csr.cfactor: dimension mismatch";
  let rp = s.f_rowptr and cols = s.f_cols in
  let gv = w.gv and cv = w.cv and yr = w.yr and yi = w.yi in
  let rr = w.rr and ri = w.ri in
  for i = 0 to n - 1 do
    let z = b.(s.rowperm.(i)) in
    yr.(i) <- z.Complex.re;
    yi.(i) <- z.Complex.im
  done;
  clu_apply s w.lre w.lim yr yi;
  (* one refinement step against the assembled G + jwC *)
  for i = 0 to n - 1 do
    let z = b.(s.rowperm.(i)) in
    let ar = ref z.Complex.re and ai = ref z.Complex.im in
    for idx = rp.(i) to rp.(i + 1) - 1 do
      let j = cols.(idx) in
      let mr = gv.(idx) and mi = omega *. cv.(idx) in
      ar := !ar -. ((mr *. yr.(j)) -. (mi *. yi.(j)));
      ai := !ai -. ((mr *. yi.(j)) +. (mi *. yr.(j)))
    done;
    rr.(i) <- !ar;
    ri.(i) <- !ai
  done;
  clu_apply s w.lre w.lim rr ri;
  let x = Array.make n Complex.zero in
  for i = 0 to n - 1 do
    x.(s.colperm.(i)) <-
      { Complex.re = yr.(i) +. rr.(i); im = yi.(i) +. ri.(i) }
  done;
  x

(* factor G + jwC once, by replaying the compiled elimination in place,
   and return a solver usable for many right-hand sides (the noise analysis
   solves one system per source per frequency) *)
let cfactor w ~omega =
  let s = w.csym in
  let rp = s.f_rowptr and diag = s.f_diag in
  let piv = s.l_piv and up = s.u_ptr and tgt = s.u_tgt and src = s.u_src in
  let lre = w.lre and lim = w.lim in
  for k = 0 to Array.length lre - 1 do
    lre.(k) <- w.gv.(k);
    lim.(k) <- omega *. w.cv.(k)
  done;
  for i = 0 to s.n - 1 do
    for idx = rp.(i) to diag.(i) - 1 do
      let kk = piv.(idx) in
      let pr = lre.(kk) and pi = lim.(kk) in
      let pmag = (pr *. pr) +. (pi *. pi) in
      let ar = lre.(idx) and ai = lim.(idx) in
      let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
      let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
      lre.(idx) <- fr;
      lim.(idx) <- fi;
      if fr <> 0. || fi <> 0. then
        for p = up.(idx) to up.(idx + 1) - 1 do
          let t = tgt.(p) and q = src.(p) in
          let ur = lre.(q) and ui = lim.(q) in
          lre.(t) <- lre.(t) -. ((fr *. ur) -. (fi *. ui));
          lim.(t) <- lim.(t) -. ((fr *. ui) +. (fi *. ur))
        done
    done;
    let dr = lre.(diag.(i)) and di = lim.(diag.(i)) in
    if (dr *. dr) +. (di *. di) < cpivot_floor then raise (Lu.Singular i)
  done;
  fun b -> csolve w ~omega b
