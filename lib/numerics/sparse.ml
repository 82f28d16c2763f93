(* Entries accumulate in growable unboxed arrays (one int array per index,
   one float array for values) rather than a list of boxed triples: a
   10^5-state generator would otherwise put every entry on the heap twice
   before the CSR arrays exist. *)
type builder = {
  b_rows : int;
  b_cols : int;
  mutable bi : int array;
  mutable bj : int array;
  mutable bv : float array;
  mutable count : int;
  mutable row_ordered : bool; (* rows were added in nondecreasing order *)
}

type t = {
  rows : int;
  cols : int;
  row_ptr : int array; (* length rows+1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array;
}

let builder ~rows ~cols =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.builder";
  let cap = 16 in
  { b_rows = rows; b_cols = cols; bi = Array.make cap 0; bj = Array.make cap 0;
    bv = Array.make cap 0.0; count = 0; row_ordered = true }

let grow b =
  let cap = 2 * Array.length b.bv in
  let extend a z =
    let a' = Array.make cap z in
    Array.blit a 0 a' 0 b.count;
    a'
  in
  b.bi <- extend b.bi 0;
  b.bj <- extend b.bj 0;
  b.bv <- extend b.bv 0.0

let add b i j x =
  if i < 0 || i >= b.b_rows || j < 0 || j >= b.b_cols then
    invalid_arg "Sparse.add: index out of range";
  if x <> 0.0 then begin
    let k = b.count in
    if k = Array.length b.bv then grow b;
    if k > 0 && i < b.bi.(k - 1) then b.row_ordered <- false;
    b.bi.(k) <- i;
    b.bj.(k) <- j;
    b.bv.(k) <- x;
    b.count <- k + 1
  end

(* Stable sort of cj/cv.(lo..hi-1) by column.  Rows are short and usually
   nearly sorted, so insertion sort; a long row goes through a stable sort
   of its index permutation instead of risking quadratic time. *)
let sort_row cj cv lo hi =
  if hi - lo <= 32 then
    for k = lo + 1 to hi - 1 do
      let j = cj.(k) and v = cv.(k) in
      let p = ref (k - 1) in
      while !p >= lo && cj.(!p) > j do
        cj.(!p + 1) <- cj.(!p);
        cv.(!p + 1) <- cv.(!p);
        decr p
      done;
      cj.(!p + 1) <- j;
      cv.(!p + 1) <- v
    done
  else begin
    let perm = Array.init (hi - lo) (fun k -> lo + k) in
    Array.stable_sort (fun a b -> compare cj.(a) cj.(b)) perm;
    let sj = Array.map (Array.get cj) perm and sv = Array.map (Array.get cv) perm in
    Array.blit sj 0 cj lo (hi - lo);
    Array.blit sv 0 cv lo (hi - lo)
  end

(* O(nnz) assembly: a counting sort groups entries by row (skipped when
   rows arrived in order), a stable per-row sort orders the columns, and
   duplicates are summed left to right — i.e. in insertion order — with
   zero sums dropped. *)
let finalize b =
  let n = b.count and rows = b.b_rows in
  let row_ptr = Array.make (rows + 1) 0 in
  for k = 0 to n - 1 do
    let i = b.bi.(k) in
    row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
  done;
  for i = 1 to rows do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  let cj, cv =
    if b.row_ordered then (Array.sub b.bj 0 n, Array.sub b.bv 0 n)
    else begin
      let cj = Array.make n 0 and cv = Array.make n 0.0 in
      let next = Array.sub row_ptr 0 rows in
      for k = 0 to n - 1 do
        let i = b.bi.(k) in
        let p = next.(i) in
        cj.(p) <- b.bj.(k);
        cv.(p) <- b.bv.(k);
        next.(i) <- p + 1
      done;
      (cj, cv)
    end
  in
  (* sum duplicates and compact in place: the write cursor never passes
     the read cursor *)
  let w = ref 0 in
  let start = ref 0 in
  for i = 0 to rows - 1 do
    let hi = row_ptr.(i + 1) in
    sort_row cj cv !start hi;
    let k = ref !start in
    while !k < hi do
      let j = cj.(!k) in
      let s = ref cv.(!k) in
      incr k;
      while !k < hi && cj.(!k) = j do
        s := !s +. cv.(!k);
        incr k
      done;
      if !s <> 0.0 then begin
        cj.(!w) <- j;
        cv.(!w) <- !s;
        incr w
      end
    done;
    start := hi;
    row_ptr.(i + 1) <- !w
  done;
  let nnz = !w in
  { rows;
    cols = b.b_cols;
    row_ptr;
    col_idx = (if nnz = n then cj else Array.sub cj 0 nnz);
    values = (if nnz = n then cv else Array.sub cv 0 nnz) }

let of_triplets ~rows ~cols ts =
  let b = builder ~rows ~cols in
  List.iter (fun (i, j, x) -> add b i j x) ts;
  finalize b

(* Per-row entry lists through the same builder: rows arrive in order, so
   [finalize] skips its counting sort. *)
let of_rows ~rows ~cols f =
  let b = builder ~rows ~cols in
  for i = 0 to rows - 1 do
    List.iter (fun (j, v) -> add b i j v) (f i)
  done;
  finalize b

let of_raw ~rows ~cols ~row_ptr ~col_idx ~values =
  if
    rows < 0 || cols < 0
    || Array.length row_ptr <> rows + 1
    || row_ptr.(0) <> 0
    || row_ptr.(rows) <> Array.length col_idx
    || Array.length col_idx <> Array.length values
  then invalid_arg "Sparse.of_raw: inconsistent arrays";
  { rows; cols; row_ptr; col_idx; values }

let raw t = (t.row_ptr, t.col_idx, t.values)

let of_dense m =
  let b = builder ~rows:(Matrix.rows m) ~cols:(Matrix.cols m) in
  for i = 0 to Matrix.rows m - 1 do
    for j = 0 to Matrix.cols m - 1 do
      add b i j (Matrix.get m i j)
    done
  done;
  finalize b

let rows t = t.rows
let cols t = t.cols
let nnz t = Array.length t.values

let iter_row t i f =
  if i < 0 || i >= t.rows then invalid_arg "Sparse.iter_row";
  for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
    f t.col_idx.(k) t.values.(k)
  done

let fold_row t i f init =
  let acc = ref init in
  iter_row t i (fun j v -> acc := f !acc j v);
  !acc

let iter t f =
  for i = 0 to t.rows - 1 do
    iter_row t i (fun j v -> f i j v)
  done

let get t i j =
  (* binary search within row i *)
  let lo = ref t.row_ptr.(i) and hi = ref (t.row_ptr.(i + 1) - 1) in
  let res = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare t.col_idx.(mid) j in
    if c = 0 then begin
      res := t.values.(mid);
      lo := !hi + 1
    end
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !res

let to_dense t =
  let m = Matrix.create ~rows:t.rows ~cols:t.cols in
  iter t (fun i j v -> Matrix.set m i j v);
  m

(* Allocation-free kernels: the Krylov solvers call these once per
   iteration on 10^5-10^6-state systems, where an Array.init per mat-vec
   would double the memory traffic and put the GC on the hot path. *)
let mat_vec_range t v out lo hi =
  let rp = t.row_ptr and ci = t.col_idx and vs = t.values in
  for i = lo to hi - 1 do
    let s = ref 0.0 in
    for k = rp.(i) to rp.(i + 1) - 1 do
      s := !s +. (vs.(k) *. v.(ci.(k)))
    done;
    out.(i) <- !s
  done

let mat_vec_into t v out =
  if Array.length v <> t.cols || Array.length out <> t.rows then
    invalid_arg "Sparse.mat_vec_into: shape";
  mat_vec_range t v out 0 t.rows

(* Row-parallel mat-vec: rows are partitioned into disjoint ranges, each
   computed by exactly one domain with the same per-row accumulation
   order as the serial kernel — the result is bit-identical to
   [mat_vec_into] by construction, whatever the partitioning.  Engages
   only above a size floor (a pool round-trip on a 1k-nnz matrix costs
   more than the multiply) and only outside pool tasks ({!Pool.run_ranges}
   degrades to the serial loop when nested). *)
let par_floor = Atomic.make 20_000

let set_par_min_nnz n = Atomic.set par_floor (max 0 n)
let par_min_nnz () = Atomic.get par_floor

let par_mat_vec_into t v out =
  if Array.length v <> t.cols || Array.length out <> t.rows then
    invalid_arg "Sparse.par_mat_vec_into: shape";
  if Array.length t.values < Atomic.get par_floor then
    mat_vec_range t v out 0 t.rows
  else Pool.run_ranges t.rows (mat_vec_range t v out)

let par_mat_vec t v =
  if Array.length v <> t.cols then invalid_arg "Sparse.par_mat_vec: shape";
  let out = Array.make t.rows 0.0 in
  par_mat_vec_into t v out;
  out

let vec_mat_into v t out =
  if Array.length v <> t.rows || Array.length out <> t.cols then
    invalid_arg "Sparse.vec_mat_into: shape";
  Array.fill out 0 t.cols 0.0;
  let rp = t.row_ptr and ci = t.col_idx and vs = t.values in
  for i = 0 to t.rows - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then
      for k = rp.(i) to rp.(i + 1) - 1 do
        out.(ci.(k)) <- out.(ci.(k)) +. (vi *. vs.(k))
      done
  done

let mat_vec t v =
  if Array.length v <> t.cols then invalid_arg "Sparse.mat_vec: shape";
  let out = Array.make t.rows 0.0 in
  mat_vec_into t v out;
  out

let vec_mat v t =
  if Array.length v <> t.rows then invalid_arg "Sparse.vec_mat: shape";
  let out = Array.make t.cols 0.0 in
  vec_mat_into v t out;
  out

(* O(nnz) counting-sort transpose (Gustavson).  Walking the source rows
   in increasing i fills each output row in increasing column order, so
   the result is canonical CSR without any sort — the triplet-builder
   path this replaces was O(nnz log nnz) with boxed intermediates, which
   dominated solve time on million-state generators. *)
let transpose t =
  let n = Array.length t.values in
  let row_ptr = Array.make (t.cols + 1) 0 in
  for k = 0 to n - 1 do
    let c = t.col_idx.(k) in
    row_ptr.(c + 1) <- row_ptr.(c + 1) + 1
  done;
  for c = 1 to t.cols do
    row_ptr.(c) <- row_ptr.(c) + row_ptr.(c - 1)
  done;
  let next = Array.copy row_ptr in
  let col_idx = Array.make n 0 and values = Array.make n 0.0 in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      let c = t.col_idx.(k) in
      let pos = next.(c) in
      col_idx.(pos) <- i;
      values.(pos) <- t.values.(k);
      next.(c) <- pos + 1
    done
  done;
  { rows = t.cols; cols = t.rows; row_ptr; col_idx; values }

let scale c t = { t with values = Array.map (fun x -> c *. x) t.values }

let scale_rows d t =
  if Array.length d <> t.rows then invalid_arg "Sparse.scale_rows: shape";
  let values = Array.copy t.values in
  for i = 0 to t.rows - 1 do
    let di = d.(i) in
    if di <> 1.0 then
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        values.(k) <- values.(k) *. di
      done
  done;
  { t with values }

let diag t = Array.init (min t.rows t.cols) (fun i -> get t i i)

let pp ppf t =
  Format.fprintf ppf "@[<v>sparse %dx%d (%d nnz)@," t.rows t.cols (nnz t);
  iter t (fun i j v -> Format.fprintf ppf "(%d,%d) = %g@," i j v);
  Format.fprintf ppf "@]"
