(* Reference for the bit-exact csr tests in t_linsys.ml: the csr kernels
   as they were before the slot lookup became a flat index and the factor
   and solve scratch moved into the workspaces.  Slots come from a
   Hashtbl keyed by i * n + j, and [rsolve] and [cfactor] allocate fresh
   scratch on every call.  The analysis is the same, so both modules order
   and fill a pattern identically, and Csr must reproduce every solution
   bit of this copy.  Do not optimise. *)

module Lu = Yield_numeric.Lu

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
  slots : (int, int) Hashtbl.t;
      (* original (i * n + j) -> value slot; read-only after [analyse] *)
}

let size s = s.n

let nnz s = Array.length s.f_cols

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
      slots = Hashtbl.create 1;
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
    (* assembly map: original coordinates -> value slot of the permuted,
       filled pattern *)
    let inv_rowperm = Array.make n 0 in
    Array.iteri (fun i orig -> inv_rowperm.(orig) <- i) rowperm;
    let slots = Hashtbl.create (4 * n) in
    Array.iteri
      (fun orig_i cols ->
        let ri = inv_rowperm.(orig_i) in
        Array.iter
          (fun orig_j ->
            let cj = inv_order.(orig_j) in
            (* binary search for cj in F row ri *)
            let lo = ref f_rowptr.(ri) and hi = ref (f_rowptr.(ri + 1) - 1) in
            let slot = ref (-1) in
            while !slot < 0 && !lo <= !hi do
              let mid = (!lo + !hi) / 2 in
              let c = f_cols.(mid) in
              if c = cj then slot := mid
              else if c < cj then lo := mid + 1
              else hi := mid - 1
            done;
            if !slot < 0 then invalid_arg "Csr.analyse: fill pattern broken";
            Hashtbl.replace slots ((orig_i * n) + orig_j) !slot)
          cols)
      rows;
    { n; rowperm; colperm; f_rowptr; f_cols; f_diag; slots }
  end

let slot s i j =
  match Hashtbl.find_opt s.slots ((i * s.n) + j) with
  | Some k -> k
  | None -> invalid_arg "Csr: entry outside the analysed pattern"

(* ---------- real numeric kernel ---------- *)

type rwork = {
  sym : symbolic;
  values : float array;  (* assembled entries, by F slot *)
  luv : float array;  (* factor workspace, same slots *)
  work : float array;  (* scatter row, length n *)
}

let rwork sym =
  let m = Array.length sym.f_cols in
  {
    sym;
    values = Array.make m 0.;
    luv = Array.make m 0.;
    work = Array.make sym.n 0.;
  }

let rreset w = Array.fill w.values 0 (Array.length w.values) 0.

let radd w i j v =
  let k = slot w.sym i j in
  w.values.(k) <- w.values.(k) +. v

(* factor [values] into [luv] (packed LU over the filled pattern, no
   pivoting).  @raise Lu.Singular on a vanishing pivot. *)
let refactor w =
  let s = w.sym in
  let n = s.n in
  let rp = s.f_rowptr and cols = s.f_cols and diag = s.f_diag in
  let luv = w.luv and work = w.work in
  Array.blit w.values 0 luv 0 (Array.length luv);
  for i = 0 to n - 1 do
    let lo = rp.(i) and hi = rp.(i + 1) - 1 in
    for idx = lo to hi do
      work.(cols.(idx)) <- luv.(idx)
    done;
    for idx = lo to diag.(i) - 1 do
      let k = cols.(idx) in
      let lik = work.(k) /. luv.(diag.(k)) in
      work.(k) <- lik;
      if lik <> 0. then
        for jdx = diag.(k) + 1 to rp.(k + 1) - 1 do
          let j = cols.(jdx) in
          work.(j) <- work.(j) -. (lik *. luv.(jdx))
        done
    done;
    for idx = lo to hi do
      luv.(idx) <- work.(cols.(idx));
      work.(cols.(idx)) <- 0.
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
  let y = Array.init n (fun i -> b.(s.rowperm.(i))) in
  lu_apply w y;
  (* one refinement step against the assembled (unfactored) values: recovers
     the accuracy numeric pivoting would have provided *)
  let r = Array.make n 0. in
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

type cwork = {
  csym : symbolic;
  gv : float array;  (* assembled G, by F slot *)
  cv : float array;  (* assembled C, by F slot *)
}

let cwork sym =
  let m = Array.length sym.f_cols in
  { csym = sym; gv = Array.make m 0.; cv = Array.make m 0. }

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

(* factor G + jwC once, return a solver usable for many right-hand sides
   (the noise analysis solves one system per source per frequency) *)
let cfactor w ~omega =
  let s = w.csym in
  let n = s.n in
  let m = Array.length s.f_cols in
  let rp = s.f_rowptr and cols = s.f_cols and diag = s.f_diag in
  let lre = Array.make m 0. and lim = Array.make m 0. in
  for k = 0 to m - 1 do
    lre.(k) <- w.gv.(k);
    lim.(k) <- omega *. w.cv.(k)
  done;
  let wr = Array.make n 0. and wi = Array.make n 0. in
  for i = 0 to n - 1 do
    let lo = rp.(i) and hi = rp.(i + 1) - 1 in
    for idx = lo to hi do
      wr.(cols.(idx)) <- lre.(idx);
      wi.(cols.(idx)) <- lim.(idx)
    done;
    for idx = lo to diag.(i) - 1 do
      let k = cols.(idx) in
      let pr = lre.(diag.(k)) and pi = lim.(diag.(k)) in
      let pmag = (pr *. pr) +. (pi *. pi) in
      let ar = wr.(k) and ai = wi.(k) in
      let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
      let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
      wr.(k) <- fr;
      wi.(k) <- fi;
      if fr <> 0. || fi <> 0. then
        for jdx = diag.(k) + 1 to rp.(k + 1) - 1 do
          let j = cols.(jdx) in
          let ur = lre.(jdx) and ui = lim.(jdx) in
          wr.(j) <- wr.(j) -. ((fr *. ur) -. (fi *. ui));
          wi.(j) <- wi.(j) -. ((fr *. ui) +. (fi *. ur))
        done
    done;
    for idx = lo to hi do
      lre.(idx) <- wr.(cols.(idx));
      lim.(idx) <- wi.(cols.(idx));
      wr.(cols.(idx)) <- 0.;
      wi.(cols.(idx)) <- 0.
    done;
    let dr = lre.(diag.(i)) and di = lim.(diag.(i)) in
    if (dr *. dr) +. (di *. di) < cpivot_floor then raise (Lu.Singular i)
  done;
  let gv = w.gv and cv = w.cv in
  fun b ->
    if Array.length b <> n then invalid_arg "Csr.cfactor: dimension mismatch";
    let yr = Array.make n 0. and yi = Array.make n 0. in
    for i = 0 to n - 1 do
      let z = b.(s.rowperm.(i)) in
      yr.(i) <- z.Complex.re;
      yi.(i) <- z.Complex.im
    done;
    clu_apply s lre lim yr yi;
    (* one refinement step against the assembled G + jwC *)
    let rr = Array.make n 0. and ri = Array.make n 0. in
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
    clu_apply s lre lim rr ri;
    let x = Array.make n Complex.zero in
    for i = 0 to n - 1 do
      x.(s.colperm.(i)) <-
        { Complex.re = yr.(i) +. rr.(i); im = yi.(i) +. ri.(i) }
    done;
    x
