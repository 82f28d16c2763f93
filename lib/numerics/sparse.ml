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
    bv = Array.make cap 0.0; count = 0 }

(* [a] with room for [need] entries, doubling; its first [used] kept *)
let grown a need used z =
  if need <= Array.length a then a
  else begin
    let a' = Array.make (max need (2 * Array.length a)) z in
    Array.blit a 0 a' 0 used;
    a'
  end

let add b i j x =
  if i < 0 || i >= b.b_rows || j < 0 || j >= b.b_cols then
    invalid_arg "Sparse.add: index out of range";
  if x <> 0.0 then begin
    let k = b.count in
    if k = Array.length b.bv then begin
      b.bi <- grown b.bi (k + 1) k 0;
      b.bj <- grown b.bj (k + 1) k 0;
      b.bv <- grown b.bv (k + 1) k 0.0
    end;
    b.bi.(k) <- i;
    b.bj.(k) <- j;
    b.bv.(k) <- x;
    b.count <- k + 1
  end

(* Stable sort of cj/cv.(0..n-1) by column.  Rows are short and usually
   nearly sorted, so insertion sort; a long row goes through a stable sort
   of its index permutation instead of risking quadratic time. *)
let sort_row (cj : int array) (cv : float array) n =
  if n <= 32 then
    for k = 1 to n - 1 do
      let j = cj.(k) and v = cv.(k) in
      let p = ref (k - 1) in
      while !p >= 0 && cj.(!p) > j do
        cj.(!p + 1) <- cj.(!p);
        cv.(!p + 1) <- cv.(!p);
        decr p
      done;
      cj.(!p + 1) <- j;
      cv.(!p + 1) <- v
    done
  else begin
    let perm = Array.init n Fun.id in
    Array.stable_sort (fun a b -> compare cj.(a) cj.(b)) perm;
    let sj = Array.map (Array.get cj) perm and sv = Array.map (Array.get cv) perm in
    Array.blit sj 0 cj 0 n;
    Array.blit sv 0 cv 0 n
  end

(* The one CSR assembler: every matrix built from entries goes through
   it, a row at a time and rows in order (a transpose or a rescaling
   keeps its source's order and needs none).  A row's entries are staged
   in emission order in a scratch buffer, stably sorted by column, and
   each cell's duplicates summed in emission order; a zero sum is not
   written.  Zero entries never enter the buffer, which only saves work:
   a zero adds nothing to a sum.  The CSR arrays grow geometrically from
   the caller's estimate and are trimmed once at the end. *)
type assembler = {
  a_cols : int;
  mutable sj : int array; (* the open row, in emission order *)
  mutable sv : float array;
  mutable sn : int;
  mutable ci : int array; (* the rows written so far *)
  mutable vs : float array;
  mutable w : int;
}

let emit_into a j x =
  if j < 0 || j >= a.a_cols then invalid_arg "Sparse.of_rows: column out of range";
  if x <> 0.0 then begin
    let k = a.sn in
    if k = Array.length a.sv then begin
      a.sj <- grown a.sj (k + 1) k 0;
      a.sv <- grown a.sv (k + 1) k 0.0
    end;
    a.sj.(k) <- j;
    a.sv.(k) <- x;
    a.sn <- k + 1
  end

(* sort, sum and write the open row; returns the row's end in the CSR *)
let close_row a =
  let n = a.sn and sj = a.sj and sv = a.sv in
  sort_row sj sv n;
  if a.w + n > Array.length a.vs then begin
    a.ci <- grown a.ci (a.w + n) a.w 0;
    a.vs <- grown a.vs (a.w + n) a.w 0.0
  end;
  let ci = a.ci and vs = a.vs in
  let w = ref a.w and k = ref 0 in
  while !k < n do
    (* the cell's sum accumulates in its output slot, left to right *)
    let j = sj.(!k) in
    vs.(!w) <- sv.(!k);
    incr k;
    while !k < n && sj.(!k) = j do
      vs.(!w) <- vs.(!w) +. sv.(!k);
      incr k
    done;
    if vs.(!w) <> 0.0 then begin
      ci.(!w) <- j;
      incr w
    end
  done;
  a.w <- !w;
  a.sn <- 0;
  !w

let of_rows ?nnz ~rows ~cols f =
  if rows < 0 || cols < 0 then invalid_arg "Sparse.of_rows";
  let cap = max 1 (Option.value nnz ~default:rows) in
  let a =
    { a_cols = cols; sj = Array.make 16 0; sv = Array.make 16 0.0; sn = 0;
      ci = Array.make cap 0; vs = Array.make cap 0.0; w = 0 }
  in
  let row_ptr = Array.make (rows + 1) 0 in
  let emit j x = emit_into a j x in
  for i = 0 to rows - 1 do
    f i emit;
    row_ptr.(i + 1) <- close_row a
  done;
  let trim x = if Array.length x = a.w then x else Array.sub x 0 a.w in
  { rows; cols; row_ptr; col_idx = trim a.ci; values = trim a.vs }

(* The triplets grouped by row with a stable counting sort, then each
   row handed to [of_rows] in insertion order. *)
let finalize b =
  let n = b.count and rows = b.b_rows in
  let start = Array.make (rows + 1) 0 in
  for k = 0 to n - 1 do
    let i = b.bi.(k) in
    start.(i + 1) <- start.(i + 1) + 1
  done;
  for i = 1 to rows do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let cj = Array.make n 0 and cv = Array.make n 0.0 in
  let next = Array.sub start 0 rows in
  for k = 0 to n - 1 do
    let i = b.bi.(k) in
    let p = next.(i) in
    cj.(p) <- b.bj.(k);
    cv.(p) <- b.bv.(k);
    next.(i) <- p + 1
  done;
  of_rows ~nnz:n ~rows ~cols:b.b_cols (fun i emit ->
      for k = start.(i) to start.(i + 1) - 1 do
        emit cj.(k) cv.(k)
      done)

let of_triplets ~rows ~cols ts =
  let b = builder ~rows ~cols in
  List.iter (fun (i, j, x) -> add b i j x) ts;
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
  of_rows ~rows:(Matrix.rows m) ~cols:(Matrix.cols m) (fun i emit ->
      for j = 0 to Matrix.cols m - 1 do
        emit j (Matrix.get m i j)
      done)

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

(* Row-parallel mat-vec over a prefix of the rows: rows [0, h) are
   partitioned into disjoint ranges, each computed by exactly one domain
   with the same per-row accumulation order as the serial kernel — the
   rows written are bit-identical to [mat_vec_into]'s by construction,
   whatever the partitioning, and rows from [h] on are not touched.
   Engages only above a size floor on the prefix's nonzeros (a pool
   round-trip on a 1k-nnz product costs more than the multiply) and only
   outside pool tasks ({!Pool.run_ranges} degrades to the serial loop
   when nested). *)
let par_floor = Atomic.make 20_000

let set_par_min_nnz n = Atomic.set par_floor (max 0 n)
let par_min_nnz () = Atomic.get par_floor

let par_mat_vec_prefix_into t h v out =
  if Array.length v <> t.cols || Array.length out <> t.rows || h < 0 || h > t.rows
  then invalid_arg "Sparse.par_mat_vec_prefix_into: shape";
  if t.row_ptr.(h) < Atomic.get par_floor then mat_vec_range t v out 0 h
  else Pool.run_ranges h (mat_vec_range t v out)

let par_mat_vec_into t v out = par_mat_vec_prefix_into t t.rows v out

(* Rows walked in order, so the last write to [last.(j)] is column j's
   largest row. *)
let prefix_reach t =
  let last = Array.make t.cols (-1) in
  for i = 0 to t.rows - 1 do
    for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
      last.(t.col_idx.(k)) <- i
    done
  done;
  let reach = Array.make (t.cols + 1) 0 in
  for j = 0 to t.cols - 1 do
    reach.(j + 1) <- max reach.(j) (last.(j) + 1)
  done;
  reach

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
