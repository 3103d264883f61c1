(* The dense backend's G + jwC workspace and the pivot-path plan its AC
   sweep follows: see pivot_path.mli for the contract.

   Why the plan is exact.  A point of the planned sweep performs, on
   every entry [Cmat.eliminate ~skip_zeros:true] reads, the operations
   that elimination performs, in its order; it only leaves out work whose
   result is known.  Three facts carry it.

   - Outside the structure, every entry is +0 and stays +0.  The load
     writes G + jwC on the pattern's slots of a buffer that holds +0
     everywhere else ([fits] checked that G and C do too, and w > 0 is
     finite, so w *. (+0) is the +0 the full pencil would hold).  A swap
     moves structural entries along with the +0s between them, and an
     update by pivot row k writes row i only at row k's structural
     columns, which the grown structure then covers.

   - No entry is -0.  G and C hold none on the pattern ([fits]), w *. C
     makes none while no product underflows (the load checks), and
     m -. x is -0 only when m is.  So updating a column whose pivot-row
     entry is a zero gives m -. (f *. 0) = m for a finite multiplier f:
     updating every structural column is the update over the nonzero
     columns that [skip_zeros] performs.

   - Rows outside the structure hold +0 in the pivot column, so their
     squared magnitude 0 never beats the running best under the strict
     [>] of the pivot search (the best starts at row k's own magnitude,
     which is >= 0 or NaN), and they have nothing to eliminate.  Scanning
     only the structural candidates picks the row the full scan picks.

   Where an assumption fails the point runs [Cmat.eliminate] instead: on
   the full pencil from step 0 when w is not a finite positive number or
   [fits] refuses G and C; on its own buffer, unchanged, from step 0 when
   a product w *. C underflows, from step k when step k's pivot has no
   path and the plan may not grow, and from step k + 1 when a multiplier
   of step k is not finite (that row gets the full update first, as in
   Cmat).  Before step k writes anything the generic search finds the
   pivot the plan found, so resuming there repeats nothing.  Back
   substitution is [Cmat.entry], unchanged: it reads every column, as it
   must, since a zero there can still flip the sign of a zero sum.

   Two lanes.  A pair of frequencies walks the trie together while both
   lanes pick the same pivot; each lane performs exactly its single-lane
   operations, in their order, and the two share the index loads and
   overlap their division chains.  On divergence, breakdown, a missing
   path or a non-finite multiplier the lanes split at the start of the
   step (the multiplier case after it): lane a finishes alone, then lane
   b, so [Lu.Singular] names the row a point-by-point sweep raises
   first. *)

(* [a.!(i)]: the kernels read and write the lane buffers, G and C
   unchecked; every index is a node's, from [select] over [0, n) or
   [0, n*n), and every buffer is n*n or n long.  The caller's arrays keep
   [a.(i)] *)
open Unchecked

(* Cmat's pivot test *)
let pivot_floor = 1e-280

(* ---------- the plan ---------- *)

(* A node is step [step] of the pivot paths that share its prefix.
   [cands] lists the rows > step whose column-[step] entry the prefix can
   make nonzero; each child is one pivot row met there.  A node at step n
   ends a path, and its [dirty] lists the slots on or above the diagonal
   that the path can leave nonzero outside the pattern. *)
type child = {
  pivot : int;  (* the row swapped into row [step] *)
  swap : int array;  (* columns >= step where either row is structural *)
  upat : int array;  (* the pivot row's structural columns > step *)
  elim : int array;  (* rows > step structural in column step *)
  next : node;
}

and node = {
  step : int;
  up : node option;  (* the node this one is a child of *)
  via : int;  (* the pivot row chosen there *)
  cands : int array;
  dirty : int array;
  children : child list Atomic.t;
}

(* The plan of one pattern, built (the pattern too) when the first sweep
   needs it.  [inside] marks the pattern's slots, [slots] lists them;
   [words] counts what the grown children hold, against [max_words]. *)
type shape = {
  slots : int array;
  inside : Bytes.t;
  root : node;
  words : int Atomic.t;
}

type t = { n : int; rows : unit -> int array array; shape : shape option Atomic.t }

let create ~n rows =
  if n < 0 then invalid_arg "Pivot_path.create: negative size";
  { n; rows; shape = Atomic.make None }

let size t = t.n

(* a plan never grows past this many words (about 4 MiB); a point whose
   path would need more eliminates generically from that step *)
let max_words = 1 lsl 19

(* the markers of a point that left the plan, and of a pivot with no path *)
let fell_back =
  {
    step = -1;
    up = None;
    via = -1;
    cands = [||];
    dirty = [||];
    children = Atomic.make [];
  }

let missing = { pivot = -1; swap = [||]; upat = [||]; elim = [||]; next = fell_back }

(* structures: n x n bytes, nonzero where an entry can be nonzero *)
let[@inline] held s n i j = Bytes.unsafe_get s ((i * n) + j) <> '\000'

let put s n i j v = Bytes.unsafe_set s ((i * n) + j) (if v then '\001' else '\000')

let select lo hi keep =
  let acc = ref [] in
  for x = hi downto lo do
    if keep x then acc := x :: !acc
  done;
  Array.of_list !acc

(* the rows > k holding column k *)
let column_rows s n k = select (k + 1) (n - 1) (fun i -> held s n i k)

(* the structure after step k with pivot row p, in place, and the step's
   swap columns, pivot-row columns and eliminated rows *)
let advance s n k p =
  let swap =
    if p = k then [||]
    else begin
      let cols = select k (n - 1) (fun j -> held s n k j || held s n p j) in
      Array.iter
        (fun j ->
          let a = held s n k j and b = held s n p j in
          put s n k j b;
          put s n p j a)
        cols;
      cols
    end
  in
  let upat = select (k + 1) (n - 1) (fun j -> held s n k j) in
  let elim = column_rows s n k in
  Array.iter (fun i -> Array.iter (fun j -> put s n i j true) upat) elim;
  (swap, upat, elim)

let shape t =
  match Atomic.get t.shape with
  | Some sh -> sh
  | None -> (
      let n = t.n in
      let rows = t.rows () in
      if Array.length rows <> n then invalid_arg "Pivot_path: pattern size";
      let inside = Bytes.make (n * n) '\000' in
      Array.iteri
        (fun i cols ->
          Array.iter
            (fun j ->
              if j < 0 || j >= n then invalid_arg "Pivot_path: pattern column";
              put inside n i j true)
            cols)
        rows;
      let slots = select 0 ((n * n) - 1) (fun s -> Bytes.get inside s <> '\000') in
      let root =
        {
          step = 0;
          up = None;
          via = -1;
          cands = column_rows inside n 0;
          dirty = [||];
          children = Atomic.make [];
        }
      in
      let sh = { slots; inside; root; words = Atomic.make 0 } in
      if Atomic.compare_and_set t.shape None (Some sh) then sh
      else match Atomic.get t.shape with Some sh -> sh | None -> assert false)

(* the structure at [node]: the pattern advanced along its path *)
let replay t sh node =
  let rec path acc nd =
    match nd.up with None -> acc | Some u -> path ((u.step, nd.via) :: acc) u
  in
  let s = Bytes.copy sh.inside in
  List.iter (fun (k, p) -> ignore (advance s t.n k p)) (path [] node);
  s

let grown t =
  let rec count node =
    List.fold_left (fun acc ch -> acc + 1 + count ch.next) 0 (Atomic.get node.children)
  in
  match Atomic.get t.shape with None -> 0 | Some sh -> count sh.root

let rec find children p =
  match children with
  | [] -> missing
  | c :: rest -> if c.pivot = p then c else find rest p

(* ---------- workspaces ---------- *)

(* A lane: one elimination buffer, and the node ending the path its last
   elimination completed ([fresh] before the first one).  Outside the
   pattern, the buffer holds +0 everywhere but the [dirty] slots of that
   node; while [last] is [fell_back] it may hold anything. *)
type lane = { buf : Cmat.work; mutable last : node }

let fresh = { fell_back with step = -2; children = Atomic.make [] }

type work = {
  plan : t;
  g : float array;  (* assembled G, row-major *)
  c : float array;
  a : lane;
  b : lane;
  (* growth: [structure] is the structure at node [grown] *)
  mutable grown : node;
  mutable structure : Bytes.t;
  (* [factor]'s pencil and scratch, made by the first [factor] *)
  mutable solver : (Cmat.t * Cmat.work) option;
  (* the sweep [sweep] last began, which [point] solves: its right-hand
     side, grid, output and response arrays, and whether the plan
     applies to its G and C *)
  mutable rhs : Complex.t array;
  mutable freqs : float array;
  mutable out : int;
  mutable re : float array;
  mutable im : float array;
  mutable planned : bool;
  (* its point solver, made by the first sweep *)
  mutable point : int -> int -> int;
}

let no_point _ _ = invalid_arg "Pivot_path: a point before any sweep"

let work plan =
  let n = plan.n in
  let a = Cmat.work n in
  {
    plan;
    g = Array.make (n * n) 0.;
    c = Array.make (n * n) 0.;
    a = { buf = a; last = fresh };
    b = { buf = Cmat.sibling a; last = fresh };
    grown = fell_back;
    structure = Bytes.empty;
    solver = None;
    rhs = [||];
    freqs = [||];
    out = -1;
    re = [||];
    im = [||];
    planned = false;
    point = no_point;
  }

let gvalues w = w.g

let cvalues w = w.c

let reset w =
  Array.fill w.g 0 (Array.length w.g) 0.;
  Array.fill w.c 0 (Array.length w.c) 0.

(* step [node.step]'s child for pivot row [p], grown and published if no
   domain has met it yet; [missing] once the plan is full *)
let grow w sh node p =
  if Atomic.get sh.words > max_words then missing
  else begin
    let t = w.plan in
    let n = t.n in
    let s = if w.grown == node then w.structure else replay t sh node in
    (* [advance] moves [s] on in place: until [grown] names its new node,
       a growth interrupted by an exception must replay *)
    w.grown <- fell_back;
    let k = node.step in
    let swap, upat, elim = advance s n k p in
    let k1 = k + 1 in
    let dirty =
      if k1 < n then [||]
      else
        select 0 ((n * n) - 1) (fun q ->
            q / n <= q mod n
            && Bytes.get s q <> '\000'
            && Bytes.get sh.inside q = '\000')
    in
    let next =
      {
        step = k1;
        up = Some node;
        via = p;
        cands = column_rows s n k1;
        dirty;
        children = Atomic.make [];
      }
    in
    let ch = { pivot = p; swap; upat; elim; next } in
    let words =
      24 + Array.length swap + Array.length upat + Array.length elim
      + Array.length next.cands + Array.length dirty
    in
    let rec publish () =
      let cur = Atomic.get node.children in
      let found = find cur p in
      if found != missing then found
      else if Atomic.compare_and_set node.children cur (ch :: cur) then begin
        ignore (Atomic.fetch_and_add sh.words words);
        ch
      end
      else publish ()
    in
    let got = publish () in
    w.grown <- got.next;
    w.structure <- s;
    got
  end

let[@inline] child w sh node p =
  let c = find (Atomic.get node.children) p in
  if c != missing then c else grow w sh node p

(* ---------- the kernels ---------- *)

let[@inline] mag2 re im p = (re.!(p) *. re.!(p)) +. (im.!(p) *. im.!(p))

let[@inline] finite x = x -. x = 0.

(* a lane leaving the plan: Cmat's elimination from step [from] on *)
let generic (l : lane) ~skip_zeros from = Cmat.eliminate l.buf ~skip_zeros ~from

(* the pivot search of step k over row k and the node's candidates *)
let[@inline] search re im n k cands =
  let best = ref k and best_mag = ref (mag2 re im ((k * n) + k)) in
  for q = 0 to Array.length cands - 1 do
    let i = cands.!(q) in
    let mag = mag2 re im ((i * n) + k) in
    if mag > !best_mag then begin
      best := i;
      best_mag := mag
    end
  done;
  if !best_mag < pivot_floor then -1 else !best

(* rows k and p swap their entries at [cols], and their right-hand sides *)
let[@inline] swap_rows (b : Cmat.work) n k p cols =
  let re = b.re and im = b.im and rk = k * n and rp = p * n in
  for q = 0 to Array.length cols - 1 do
    let j = cols.!(q) in
    let tr = re.!(rk + j) and ti = im.!(rk + j) in
    re.!(rk + j) <- re.!(rp + j);
    im.!(rk + j) <- im.!(rp + j);
    re.!(rp + j) <- tr;
    im.!(rp + j) <- ti
  done;
  let xr = b.xr and xi = b.xi in
  let tr = xr.!(k) and ti = xi.!(k) in
  xr.!(k) <- xr.!(p);
  xi.!(k) <- xi.!(p);
  xr.!(p) <- tr;
  xi.!(p) <- ti

(* Cmat's elimination of row i by pivot row k, multiplier (fr, fi): over
   the structural columns [upat] for a finite multiplier, over every
   column > k otherwise *)
let[@inline] eliminate_row (b : Cmat.work) n k i upat fr fi =
  let re = b.re and im = b.im and rk = k * n and ri = i * n in
  re.!(ri + k) <- 0.;
  im.!(ri + k) <- 0.;
  if finite fr && finite fi then
    for u = 0 to Array.length upat - 1 do
      let j = upat.!(u) in
      let ur = re.!(rk + j) and ui = im.!(rk + j) in
      re.!(ri + j) <- re.!(ri + j) -. ((fr *. ur) -. (fi *. ui));
      im.!(ri + j) <- im.!(ri + j) -. ((fr *. ui) +. (fi *. ur))
    done
  else
    for j = k + 1 to n - 1 do
      let ur = re.!(rk + j) and ui = im.!(rk + j) in
      re.!(ri + j) <- re.!(ri + j) -. ((fr *. ur) -. (fi *. ui));
      im.!(ri + j) <- im.!(ri + j) -. ((fr *. ui) +. (fi *. ur))
    done;
  let xr = b.xr and xi = b.xi in
  xr.!(i) <- xr.!(i) -. ((fr *. xr.!(k)) -. (fi *. xi.!(k)));
  xi.!(i) <- xi.!(i) -. ((fr *. xi.!(k)) +. (fi *. xr.!(k)))

(* step k of one lane along [ch]; false when a multiplier was not finite *)
let step1 (b : Cmat.work) n k ch =
  if ch.pivot <> k then swap_rows b n k ch.pivot ch.swap;
  let re = b.re and im = b.im in
  let pr = re.!((k * n) + k) and pi = im.!((k * n) + k) in
  let pmag = (pr *. pr) +. (pi *. pi) in
  let upat = ch.upat and elim = ch.elim in
  let ok = ref true in
  for e = 0 to Array.length elim - 1 do
    let i = elim.!(e) in
    let ar = re.!((i * n) + k) and ai = im.!((i * n) + k) in
    if ar <> 0. || ai <> 0. then begin
      let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
      let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
      if not (finite fr && finite fi) then ok := false;
      eliminate_row b n k i upat fr fi
    end
  done;
  !ok

(* step k of two lanes along [ch], each lane's operations in [step1]'s
   order; bit 0 (lane a) or 1 (lane b) set when a multiplier of that lane
   was not finite *)
let step2 (a : Cmat.work) (b : Cmat.work) n k ch =
  if ch.pivot <> k then begin
    swap_rows a n k ch.pivot ch.swap;
    swap_rows b n k ch.pivot ch.swap
  end;
  let are = a.re and aim = a.im and axr = a.xr and axi = a.xi in
  let bre = b.re and bim = b.im and bxr = b.xr and bxi = b.xi in
  let rk = k * n in
  let pr = are.!(rk + k) and pi = aim.!(rk + k) in
  let pmag = (pr *. pr) +. (pi *. pi) in
  let qr = bre.!(rk + k) and qi = bim.!(rk + k) in
  let qmag = (qr *. qr) +. (qi *. qi) in
  let upat = ch.upat and elim = ch.elim in
  let broken = ref 0 in
  for e = 0 to Array.length elim - 1 do
    let i = elim.!(e) in
    let ri = i * n in
    let ar = are.!(ri + k) and ai = aim.!(ri + k) in
    let cr = bre.!(ri + k) and ci = bim.!(ri + k) in
    let on_a = ar <> 0. || ai <> 0. and on_b = cr <> 0. || ci <> 0. in
    let fr = ((ar *. pr) +. (ai *. pi)) /. pmag in
    let fi = ((ai *. pr) -. (ar *. pi)) /. pmag in
    let gr = ((cr *. qr) +. (ci *. qi)) /. qmag in
    let gi = ((ci *. qr) -. (cr *. qi)) /. qmag in
    if on_a && on_b && finite fr && finite fi && finite gr && finite gi then begin
      are.!(ri + k) <- 0.;
      aim.!(ri + k) <- 0.;
      bre.!(ri + k) <- 0.;
      bim.!(ri + k) <- 0.;
      for u = 0 to Array.length upat - 1 do
        let j = upat.!(u) in
        let ur = are.!(rk + j) and ui = aim.!(rk + j) in
        are.!(ri + j) <- are.!(ri + j) -. ((fr *. ur) -. (fi *. ui));
        aim.!(ri + j) <- aim.!(ri + j) -. ((fr *. ui) +. (fi *. ur));
        let vr = bre.!(rk + j) and vi = bim.!(rk + j) in
        bre.!(ri + j) <- bre.!(ri + j) -. ((gr *. vr) -. (gi *. vi));
        bim.!(ri + j) <- bim.!(ri + j) -. ((gr *. vi) +. (gi *. vr))
      done;
      axr.!(i) <- axr.!(i) -. ((fr *. axr.!(k)) -. (fi *. axi.!(k)));
      axi.!(i) <- axi.!(i) -. ((fr *. axi.!(k)) +. (fi *. axr.!(k)));
      bxr.!(i) <- bxr.!(i) -. ((gr *. bxr.!(k)) -. (gi *. bxi.!(k)));
      bxi.!(i) <- bxi.!(i) -. ((gr *. bxi.!(k)) +. (gi *. bxr.!(k)))
    end
    else begin
      if on_a then begin
        if not (finite fr && finite fi) then broken := !broken lor 1;
        eliminate_row a n k i upat fr fi
      end;
      if on_b then begin
        if not (finite gr && finite gi) then broken := !broken lor 2;
        eliminate_row b n k i upat gr gi
      end
    end
  done;
  !broken

(* one lane along the plan from [node] to the end of its path *)
let rec run1 w sh (l : lane) node =
  let n = w.plan.n and k = node.step in
  if k = n then l.last <- node
  else begin
    let b = l.buf in
    let p = search b.re b.im n k node.cands in
    if p < 0 then raise (Lu.Singular k);
    let ch = child w sh node p in
    if ch == missing then generic l ~skip_zeros:true k
    else if step1 b n k ch then run1 w sh l ch.next
    else generic l ~skip_zeros:true (k + 1)
  end

(* two lanes along the plan from [node], together while they agree *)
let rec run2 w sh a b node =
  let n = w.plan.n and k = node.step in
  if k = n then begin
    a.last <- node;
    b.last <- node
  end
  else begin
    let pa = search a.buf.re a.buf.im n k node.cands in
    let pb = search b.buf.re b.buf.im n k node.cands in
    let ch = if pa >= 0 && pa = pb then child w sh node pa else missing in
    if ch == missing then begin
      run1 w sh a node;
      run1 w sh b node
    end
    else
      match step2 a.buf b.buf n k ch with
      | 0 -> run2 w sh a b ch.next
      | broken ->
          if broken land 1 = 0 then run1 w sh a ch.next
          else generic a ~skip_zeros:true (k + 1);
          if broken land 2 = 0 then run1 w sh b ch.next
          else generic b ~skip_zeros:true (k + 1)
  end

(* every slot outside the pattern +0, G and C's -0-free: the plan's
   premise, checked once per sweep *)
let fits sh g c =
  let inside = sh.inside in
  let ok = ref true in
  for s = 0 to Array.length g - 1 do
    let gv = g.!(s) and cv = c.!(s) in
    if Bytes.unsafe_get inside s <> '\000' then begin
      if (gv = 0. && 1. /. gv < 0.) || (cv = 0. && 1. /. cv < 0.) then ok := false
    end
    else if gv <> 0. || cv <> 0. || 1. /. gv < 0. || 1. /. cv < 0. then ok := false
  done;
  !ok

(* [a] <- G + j omega C over every entry, as Cmat.of_real; true when the
   zero skip is exact (see linsys.ml) *)
let[@inline] pencil (re : float array) (im : float array) g c omega =
  let exact = ref (omega > 0.) in
  for s = 0 to Array.length re - 1 do
    re.!(s) <- g.!(s);
    let v = omega *. c.!(s) in
    im.!(s) <- v;
    if v = 0. && c.!(s) <> 0. then exact := false
  done;
  !exact

(* lane [l] <- G + j omega C.  0: the plan applies; 1 or 2: it does not,
   and Cmat's elimination runs with [skip_zeros] true or false *)
let[@inline] load w sh (l : lane) planned omega =
  let re = l.buf.re and im = l.buf.im and last = l.last in
  l.last <- fell_back;
  if planned && omega > 0. && omega < Float.infinity then begin
    if last == fell_back then begin
      Array.fill re 0 (Array.length re) 0.;
      Array.fill im 0 (Array.length im) 0.
    end
    else begin
      let d = last.dirty in
      for q = 0 to Array.length d - 1 do
        re.!(d.!(q)) <- 0.;
        im.!(d.!(q)) <- 0.
      done
    end;
    let g = w.g and c = w.c and slots = sh.slots in
    let exact = ref true in
    for q = 0 to Array.length slots - 1 do
      let s = slots.!(q) in
      re.!(s) <- g.!(s);
      let v = omega *. c.!(s) in
      im.!(s) <- v;
      if v = 0. && c.!(s) <> 0. then exact := false
    done;
    if !exact then 0 else 2
  end
  else if pencil re im w.g w.c omega then 1
  else 2

let load_rhs (l : lane) (rhs : Complex.t array) =
  let xr = l.buf.xr and xi = l.buf.xi in
  for i = 0 to Array.length xr - 1 do
    xr.!(i) <- rhs.(i).Complex.re;
    xi.!(i) <- rhs.(i).Complex.im
  done

let run1_from w sh l mode =
  if mode = 0 then run1 w sh l sh.root else generic l ~skip_zeros:(mode = 1) 0

(* entry [out] of lane [l]'s solution into [re.(k)] and [im.(k)]; 1 when
   the lane left the plan *)
let finish (l : lane) out ~re ~im k =
  Cmat.entry_into l.buf out ~re ~im k;
  if l.last == fell_back then 1 else 0

(* a point of the sweep [sweep] stored in [w] *)
let point w k k' =
  let sh = shape w.plan and planned = w.planned and rhs = w.rhs in
  let freqs = w.freqs and out = w.out and re = w.re and im = w.im in
  let a = w.a and b = w.b in
  let ma = load w sh a planned (2. *. Float.pi *. freqs.(k)) in
  load_rhs a rhs;
  if k' < 0 then begin
    run1_from w sh a ma;
    finish a out ~re ~im k
  end
  else begin
    let mb = load w sh b planned (2. *. Float.pi *. freqs.(k')) in
    load_rhs b rhs;
    if ma = 0 && mb = 0 then run2 w sh a b sh.root
    else begin
      run1_from w sh a ma;
      run1_from w sh b mb
    end;
    let ga = finish a out ~re ~im k in
    ga + finish b out ~re ~im k'
  end

(* the sweep's arguments wait in the workspace, and its point solver is
   the one the first sweep made: beginning a sweep allocates nothing *)
let sweep w rhs ~freqs ~out ~re ~im =
  let n = w.plan.n in
  if Array.length rhs <> n then invalid_arg "Pivot_path.sweep: dimension mismatch";
  if out >= n then invalid_arg "Pivot_path.sweep: output outside the system";
  if w.point == no_point then w.point <- (fun k k' -> point w k k');
  w.planned <- fits (shape w.plan) w.g w.c;
  w.rhs <- rhs;
  w.freqs <- freqs;
  w.out <- out;
  w.re <- re;
  w.im <- im;
  w.point

let factor w ~omega =
  let n = w.plan.n in
  let m, cw =
    match w.solver with
    | Some s -> s
    | None ->
        let s = (Cmat.create n n, Cmat.work n) in
        w.solver <- Some s;
        s
  in
  let skip_zeros = pencil m.Cmat.re m.Cmat.im w.g w.c omega in
  fun rhs -> Cmat.solve_with cw ~skip_zeros m rhs
