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
   [rsolve_into] allocates nothing and [rsolve] only the solution it
   returns.  Each call overwrites
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

let rsolve_into w b x =
  let s = w.sym in
  let n = s.n in
  if Array.length b <> n || Array.length x <> n then
    invalid_arg "Csr.rsolve: dimension mismatch";
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
  for i = 0 to n - 1 do
    x.(s.colperm.(i)) <- y.(i)
  done

let rsolve w b =
  let x = Array.make w.sym.n 0. in
  rsolve_into w b x;
  x

(* ---------- complex numeric kernel (G + jwC) ---------- *)

(* One lane holds the factors of G + jwC at one frequency and the vectors
   its solves use.  [cfactor] and a lone sweep point work in lane 0; a
   paired sweep point factors its second frequency in lane 1. *)
type lane = {
  lre : float array;  (* factors of G + jwC, by F slot *)
  lim : float array;
  yr : float array;  (* permuted solution, length n *)
  yi : float array;
  rr : float array;  (* refinement residual and correction, length n *)
  ri : float array;
}

(* As for [rwork]: a factorisation overwrites its lane's factors in full,
   and each solve loads the right-hand side and overwrites the vectors it
   uses, so a factorisation and its solves allocate only the solver closure
   and the solutions, and a sweep point only its response. *)
type cwork = {
  csym : symbolic;
  gv : float array;  (* assembled G, by F slot *)
  cv : float array;  (* assembled C, by F slot *)
  br : float array;  (* right-hand side, row-permuted, length n *)
  bi : float array;
  l0 : lane;
  l1 : lane;
  (* the sweep [csweep] last began, which its point solver solves: the
     grid, the output's permuted column and the response arrays *)
  mutable sfreqs : float array;
  mutable spos : int;
  mutable sre : float array;
  mutable sim : float array;
  (* that point solver, made by the first sweep *)
  mutable spoint : int -> int -> int;
}

let no_point _ _ = invalid_arg "Csr: a point before any sweep"

let lane m n =
  let vec k = Array.make k 0. in
  { lre = vec m; lim = vec m; yr = vec n; yi = vec n; rr = vec n; ri = vec n }

let cwork sym =
  let m = Array.length sym.f_cols and n = sym.n in
  {
    csym = sym;
    gv = Array.make m 0.;
    cv = Array.make m 0.;
    br = Array.make n 0.;
    bi = Array.make n 0.;
    l0 = lane m n;
    l1 = lane m n;
    sfreqs = [||];
    spos = -1;
    sre = [||];
    sim = [||];
    spoint = no_point;
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

(* [l]'s factor slots <- G + j omega C.  This and the other [@inline]
   helpers below take a float, which a call that is not inlined would box:
   inlined, a sweep point's omega stays in a register. *)
let[@inline] load_pencil w l omega =
  let gv = w.gv and cv = w.cv and lre = l.lre and lim = l.lim in
  for k = 0 to Array.length lre - 1 do
    lre.(k) <- gv.(k);
    lim.(k) <- omega *. cv.(k)
  done

(* one L entry's row update: the pairs [lo] .. [hi] of the schedule, by
   the multiplier (fr, fi) *)
let[@inline] update lre lim (tgt : int array) (src : int array) fr fi lo hi =
  for p = lo to hi do
    let t = tgt.(p) and q = src.(p) in
    let ur = lre.(q) and ui = lim.(q) in
    lre.(t) <- lre.(t) -. ((fr *. ur) -. (fi *. ui));
    lim.(t) <- lim.(t) -. ((fr *. ui) +. (fi *. ur))
  done

let[@inline] pivot_vanishes lre lim d =
  (lre.(d) *. lre.(d)) +. (lim.(d) *. lim.(d)) < cpivot_floor

(* factor lane [l] in place by replaying the compiled elimination.
   @raise Lu.Singular on a vanishing pivot *)
let celim s l =
  let rp = s.f_rowptr and diag = s.f_diag in
  let piv = s.l_piv and up = s.u_ptr and tgt = s.u_tgt and src = s.u_src in
  let lre = l.lre and lim = l.lim in
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
      if fr <> 0. || fi <> 0. then update lre lim tgt src fr fi up.(idx) (up.(idx + 1) - 1)
    done;
    if pivot_vanishes lre lim diag.(i) then raise (Lu.Singular i)
  done

(* Factor lanes [a] and [b] in one replay of the compiled elimination.
   Each lane performs exactly the operations [celim] performs on it, in
   the same order, with its own zero-multiplier skip and pivot test; the
   lanes share only the schedule's index loads, so each lane's factors
   carry [celim]'s bits.  A breakdown of lane a is raised at its row; one
   of lane b waits until lane a has factored whole, so the row raised is
   the one a sweep factoring a and then b would raise first. *)
let celim2 s a b =
  let rp = s.f_rowptr and diag = s.f_diag in
  let piv = s.l_piv and up = s.u_ptr and tgt = s.u_tgt and src = s.u_src in
  let are = a.lre and aim = a.lim and bre = b.lre and bim = b.lim in
  let broken = ref (-1) in
  for i = 0 to s.n - 1 do
    for idx = rp.(i) to diag.(i) - 1 do
      let kk = piv.(idx) in
      let pr = are.(kk) and pi = aim.(kk) in
      let pmag = (pr *. pr) +. (pi *. pi) in
      let ar = are.(idx) and ai = aim.(idx) in
      let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
      let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
      are.(idx) <- fr;
      aim.(idx) <- fi;
      let qr = bre.(kk) and qi = bim.(kk) in
      let qmag = (qr *. qr) +. (qi *. qi) in
      let cr = bre.(idx) and ci = bim.(idx) in
      let gr = ((cr *. qr) +. (ci *. qi)) /. qmag in
      let gi = ((ci *. qr) -. (cr *. qi)) /. qmag in
      bre.(idx) <- gr;
      bim.(idx) <- gi;
      let lo = up.(idx) and hi = up.(idx + 1) - 1 in
      let on_a = fr <> 0. || fi <> 0. and on_b = gr <> 0. || gi <> 0. in
      if on_a && on_b then
        for p = lo to hi do
          let t = tgt.(p) and q = src.(p) in
          let ur = are.(q) and ui = aim.(q) in
          are.(t) <- are.(t) -. ((fr *. ur) -. (fi *. ui));
          aim.(t) <- aim.(t) -. ((fr *. ui) +. (fi *. ur));
          let vr = bre.(q) and vi = bim.(q) in
          bre.(t) <- bre.(t) -. ((gr *. vr) -. (gi *. vi));
          bim.(t) <- bim.(t) -. ((gr *. vi) +. (gi *. vr))
        done
      else if on_a then update are aim tgt src fr fi lo hi
      else if on_b then update bre bim tgt src gr gi lo hi
    done;
    if pivot_vanishes are aim diag.(i) then raise (Lu.Singular i);
    if !broken < 0 && pivot_vanishes bre bim diag.(i) then broken := i
  done;
  if !broken >= 0 then raise (Lu.Singular !broken)

(* one triangular solve of the factored lane [l] on (yr, yi), in permuted
   row coordinates on entry and permuted column coordinates on exit.  The
   backward pass stops at row [lo], which reads only rows after it:
   entries 0 .. lo - 1 are left half solved. *)
let clu_apply s l yr yi lo =
  let n = s.n in
  let rp = s.f_rowptr and cols = s.f_cols and diag = s.f_diag in
  let lre = l.lre and lim = l.lim in
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
  for i = n - 1 downto lo do
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

(* [clu_apply] on lane a's (xr, xi) and lane b's (zr, zi) in one pass,
   each lane's operations in [clu_apply]'s order *)
let clu_apply2 s lo a (xr : float array) (xi : float array) b (zr : float array)
    (zi : float array) =
  let n = s.n in
  let rp = s.f_rowptr and cols = s.f_cols and diag = s.f_diag in
  let are = a.lre and aim = a.lim and bre = b.lre and bim = b.lim in
  for i = 0 to n - 1 do
    let ar = ref xr.(i) and ai = ref xi.(i) in
    let cr = ref zr.(i) and ci = ref zi.(i) in
    for idx = rp.(i) to diag.(i) - 1 do
      let j = cols.(idx) in
      let lr = are.(idx) and li = aim.(idx) in
      ar := !ar -. ((lr *. xr.(j)) -. (li *. xi.(j)));
      ai := !ai -. ((lr *. xi.(j)) +. (li *. xr.(j)));
      let mr = bre.(idx) and mi = bim.(idx) in
      cr := !cr -. ((mr *. zr.(j)) -. (mi *. zi.(j)));
      ci := !ci -. ((mr *. zi.(j)) +. (mi *. zr.(j)))
    done;
    xr.(i) <- !ar;
    xi.(i) <- !ai;
    zr.(i) <- !cr;
    zi.(i) <- !ci
  done;
  for i = n - 1 downto lo do
    let ar = ref xr.(i) and ai = ref xi.(i) in
    let cr = ref zr.(i) and ci = ref zi.(i) in
    for idx = diag.(i) + 1 to rp.(i + 1) - 1 do
      let j = cols.(idx) in
      let ur = are.(idx) and ui = aim.(idx) in
      ar := !ar -. ((ur *. xr.(j)) -. (ui *. xi.(j)));
      ai := !ai -. ((ur *. xi.(j)) +. (ui *. xr.(j)));
      let vr = bre.(idx) and vi = bim.(idx) in
      cr := !cr -. ((vr *. zr.(j)) -. (vi *. zi.(j)));
      ci := !ci -. ((vr *. zi.(j)) +. (vi *. zr.(j)))
    done;
    let d = diag.(i) in
    let pr = are.(d) and pi = aim.(d) in
    let pmag = (pr *. pr) +. (pi *. pi) in
    xr.(i) <- ((!ar *. pr) +. (!ai *. pi)) /. pmag;
    xi.(i) <- ((!ai *. pr) -. (!ar *. pi)) /. pmag;
    let qr = bre.(d) and qi = bim.(d) in
    let qmag = (qr *. qr) +. (qi *. qi) in
    zr.(i) <- ((!cr *. qr) +. (!ci *. qi)) /. qmag;
    zi.(i) <- ((!ci *. qr) -. (!cr *. qi)) /. qmag
  done

(* the right-hand side, row-permuted, into [br]/[bi] *)
let load_rhs w b =
  let s = w.csym in
  for i = 0 to s.n - 1 do
    let z = b.(s.rowperm.(i)) in
    w.br.(i) <- z.Complex.re;
    w.bi.(i) <- z.Complex.im
  done

(* one refinement step's residual against the assembled G + j omega C,
   for the lane's solution y, into its (rr, ri) *)
let[@inline] residual w l omega =
  let s = w.csym in
  let rp = s.f_rowptr and cols = s.f_cols in
  let gv = w.gv and cv = w.cv in
  let yr = l.yr and yi = l.yi in
  for i = 0 to s.n - 1 do
    let ar = ref w.br.(i) and ai = ref w.bi.(i) in
    for idx = rp.(i) to rp.(i + 1) - 1 do
      let j = cols.(idx) in
      let mr = gv.(idx) and mi = omega *. cv.(idx) in
      ar := !ar -. ((mr *. yr.(j)) -. (mi *. yi.(j)));
      ai := !ai -. ((mr *. yi.(j)) +. (mi *. yr.(j)))
    done;
    l.rr.(i) <- !ar;
    l.ri.(i) <- !ai
  done

(* [residual] for lanes a and b in one pass over the assembled values *)
let[@inline] residual2 w a oa b ob =
  let s = w.csym in
  let rp = s.f_rowptr and cols = s.f_cols in
  let gv = w.gv and cv = w.cv in
  let xr = a.yr and xi = a.yi and zr = b.yr and zi = b.yi in
  for i = 0 to s.n - 1 do
    let ar = ref w.br.(i) and ai = ref w.bi.(i) in
    let cr = ref w.br.(i) and ci = ref w.bi.(i) in
    for idx = rp.(i) to rp.(i + 1) - 1 do
      let j = cols.(idx) in
      let g = gv.(idx) and c = cv.(idx) in
      let mi = oa *. c in
      ar := !ar -. ((g *. xr.(j)) -. (mi *. xi.(j)));
      ai := !ai -. ((g *. xi.(j)) +. (mi *. xr.(j)));
      let ni = ob *. c in
      cr := !cr -. ((g *. zr.(j)) -. (ni *. zi.(j)));
      ci := !ci -. ((g *. zi.(j)) +. (ni *. zr.(j)))
    done;
    a.rr.(i) <- !ar;
    a.ri.(i) <- !ai;
    b.rr.(i) <- !cr;
    b.ri.(i) <- !ci
  done

(* solve the factored lane [l] for the loaded right-hand side, then one
   refinement step against the assembled G + jwC; the correction's
   backward pass stops at row [lo].  Permuted entry i >= lo of the solution
   is then (yr + rr, yi + ri).(i). *)
let[@inline] solve_loaded w l omega lo =
  let s = w.csym in
  for i = 0 to s.n - 1 do
    l.yr.(i) <- w.br.(i);
    l.yi.(i) <- w.bi.(i)
  done;
  clu_apply s l l.yr l.yi 0;
  residual w l omega;
  clu_apply s l l.rr l.ri lo

(* solve the factored G + jwC for one right-hand side *)
let csolve w ~omega b =
  let s = w.csym in
  let n = s.n in
  if Array.length b <> n then invalid_arg "Csr.cfactor: dimension mismatch";
  load_rhs w b;
  let l = w.l0 in
  solve_loaded w l omega 0;
  let x = Array.make n Complex.zero in
  for i = 0 to n - 1 do
    x.(s.colperm.(i)) <-
      { Complex.re = l.yr.(i) +. l.rr.(i); im = l.yi.(i) +. l.ri.(i) }
  done;
  x

(* factor G + jwC once, by replaying the compiled elimination in place,
   and return a solver usable for many right-hand sides (the noise analysis
   solves one system per source per frequency) *)
let cfactor w ~omega =
  load_pencil w w.l0 omega;
  celim w.csym w.l0;
  fun b -> csolve w ~omega b

(* ---------- the AC sweep ---------- *)

(* the solved lane's entry at permuted column [pos], or zero without an
   output, into [re.(k)] and [im.(k)] *)
let[@inline] response_at l pos ~re ~im k =
  if pos < 0 then begin
    re.(k) <- 0.;
    im.(k) <- 0.
  end
  else begin
    re.(k) <- l.yr.(pos) +. l.rr.(pos);
    im.(k) <- l.yi.(pos) +. l.ri.(pos)
  end

(* frequency [k] alone, in lane 0: [cfactor]'s elimination and solve,
   with the correction's backward pass stopped at the output *)
let sweep_one w freqs pos ~re ~im k =
  let omega = 2. *. Float.pi *. freqs.(k) in
  let l = w.l0 in
  load_pencil w l omega;
  celim w.csym l;
  if pos >= 0 then solve_loaded w l omega pos;
  response_at l pos ~re ~im k

(* frequencies [k] and [k'] in lanes 0 and 1, in one pass of each kernel *)
let sweep_two w freqs pos ~re ~im k k' =
  let s = w.csym in
  let oa = 2. *. Float.pi *. freqs.(k) and ob = 2. *. Float.pi *. freqs.(k') in
  let a = w.l0 and b = w.l1 in
  load_pencil w a oa;
  load_pencil w b ob;
  celim2 s a b;
  if pos >= 0 then begin
    for i = 0 to s.n - 1 do
      a.yr.(i) <- w.br.(i);
      a.yi.(i) <- w.bi.(i);
      b.yr.(i) <- w.br.(i);
      b.yi.(i) <- w.bi.(i)
    done;
    clu_apply2 s 0 a a.yr a.yi b b.yr b.yi;
    residual2 w a oa b ob;
    clu_apply2 s pos a a.rr a.ri b b.rr b.ri
  end;
  response_at a pos ~re ~im k;
  response_at b pos ~re ~im k'

(* a point of the sweep [csweep] stored in [w] *)
let point w k k' =
  let freqs = w.sfreqs and pos = w.spos and re = w.sre and im = w.sim in
  if k' < 0 then sweep_one w freqs pos ~re ~im k
  else sweep_two w freqs pos ~re ~im k k';
  0

(* the sweep's arguments wait in the workspace, and its point solver is
   the one the first sweep made: beginning a sweep allocates nothing *)
let csweep w b ~freqs ~out ~re ~im =
  let s = w.csym in
  if Array.length b <> s.n then invalid_arg "Csr.csweep: dimension mismatch";
  if out >= s.n then invalid_arg "Csr.csweep: output outside the system";
  load_rhs w b;
  (* the output's permuted column, -1 without one *)
  let pos = ref (-1) in
  for i = 0 to s.n - 1 do
    if s.colperm.(i) = out then pos := i
  done;
  if w.spoint == no_point then w.spoint <- (fun k k' -> point w k k');
  w.sfreqs <- freqs;
  w.spos <- !pos;
  w.sre <- re;
  w.sim <- im;
  w.spoint
