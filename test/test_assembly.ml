(* CSR assembly, bit for bit against the triplet builder it replaced.
   Every chain constructor now writes its generator a row at a time
   through [Sparse.of_rows], and the uniformization builds P^T straight
   from Q's CSR.  [Reference] holds the earlier path verbatim: a
   growable triplet buffer, a counting sort by row and a stable per-row
   sort with duplicates summed in insertion order, Ctmc's constructors
   on top of it, and a uniformization that built P to transpose it.
   Structure, every value's bits and every exit rate's bits must agree
   on random chains, on hand-made rows that reach each rule (a zero
   entry, a zero sum, an entry that underflows, a row with no diagonal,
   three or more duplicates in a cell, a row in decreasing column order,
   an empty row, a row past the insertion-sort cutoff), and, through
   fingerprints taken with the earlier path, on SRN chains from
   [Reach.build]. *)

module Sparse = Sharpe_numerics.Sparse
module Ctmc = Sharpe_markov.Ctmc
module Net = Sharpe_petri.Net
module Reach = Sharpe_petri.Reach
module Gen = Sharpe_check.Gen
module Srng = Sharpe_check.Srng

module Reference = struct
  module Sparse = struct
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


    let raw t = (t.row_ptr, t.col_idx, t.values)

    let iter_row t i f =
      if i < 0 || i >= t.rows then invalid_arg "Sparse.iter_row";
      for k = t.row_ptr.(i) to t.row_ptr.(i + 1) - 1 do
        f t.col_idx.(k) t.values.(k)
      done

    let iter t f =
      for i = 0 to t.rows - 1 do
        iter_row t i (fun j v -> f i j v)
      done

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

  end

  type t = {
    n : int;
    q : Sparse.t;
    exit : float array;
    mutable unif : (float * Sparse.t * Sparse.t) option;
  }

  let make_error msg = invalid_arg ("Ctmc.make: " ^ msg)

  let add_rate b exit i j r =
    if i = j then make_error "self loop";
    if not (Float.is_finite r) then make_error "non-finite rate";
    if r < 0.0 then make_error "negative rate";
    if r > 0.0 then begin
      Sparse.add b i j r;
      exit.(i) <- exit.(i) +. r
    end

  let make ~n rates =
    let b = Sparse.builder ~rows:n ~cols:n in
    let exit = Array.make n 0.0 in
    List.iter (fun (i, j, r) -> add_rate b exit i j r) rates;
    Array.iteri (fun i e -> if e > 0.0 then Sparse.add b i i (-.e)) exit;
    { n; q = Sparse.finalize b; exit; unif = None }

  let of_rows ~n row =
    let b = Sparse.builder ~rows:n ~cols:n in
    let exit = Array.make n 0.0 in
    for i = 0 to n - 1 do
      row i (add_rate b exit i);
      if exit.(i) > 0.0 then Sparse.add b i i (-.exit.(i))
    done;
    { n; q = Sparse.finalize b; exit; unif = None }

  let uniformized_full c =
    match c.unif with
    | Some u -> u
    | None ->
        let qmax = Array.fold_left Float.max 1e-300 c.exit in
        let lambda = 1.02 *. qmax in
        let b = Sparse.builder ~rows:c.n ~cols:c.n in
        Sparse.iter c.q (fun i j v -> Sparse.add b i j (v /. lambda));
        for i = 0 to c.n - 1 do
          Sparse.add b i i 1.0
        done;
        let p = Sparse.finalize b in
        let u = (lambda, p, Sparse.transpose p) in
        c.unif <- Some u;
        u

end

(* --- comparisons ------------------------------------------------------ *)

let bits = Int64.bits_of_float

let csr_bits (rp, ci, vs) = (rp, ci, Array.map bits vs)

let same_csr what expected got =
  if csr_bits expected <> csr_bits got then Alcotest.failf "%s: CSR differs from the reference" what

(* generator, exit rates, and the uniformized P and P^T *)
let same_chain what (r : Reference.t) c =
  same_csr (what ^ ": generator") (Reference.Sparse.raw r.q) (Sparse.raw (Ctmc.generator c));
  if Array.map bits r.exit <> Array.init r.n (fun i -> bits (Ctmc.exit_rate c i)) then
    Alcotest.failf "%s: exit rates differ from the reference" what;
  let lambda, p, pt = Reference.uniformized_full r in
  let lambda', pt' = Ctmc.uniformized c in
  let _, p' = Ctmc.uniformized_dtmc c in
  if bits lambda <> bits lambda' then Alcotest.failf "%s: lambda differs" what;
  same_csr (what ^ ": P") (Reference.Sparse.raw p) (Sparse.raw p');
  same_csr (what ^ ": P^T") (Reference.Sparse.raw pt) (Sparse.raw pt')

(* [make] on the list, and [of_rows] emitting each row's rates in list
   order, against the reference's two constructors *)
let check_rates what n rates =
  same_chain (what ^ " (make)") (Reference.make ~n rates) (Ctmc.make ~n rates);
  let row i emit = List.iter (fun (i', j, r) -> if i' = i then emit j r) rates in
  same_chain (what ^ " (of_rows)") (Reference.of_rows ~n row) (Ctmc.of_rows ~n row)

(* [Sparse.of_rows] on per-row entry lists, and [Sparse.of_triplets] on
   the same entries in reverse row order, against the reference builder *)
let check_sparse what ~rows ~cols (row : int -> (int * float) list) =
  let b = Reference.Sparse.builder ~rows ~cols in
  for i = 0 to rows - 1 do
    List.iter (fun (j, v) -> Reference.Sparse.add b i j v) (row i)
  done;
  let expected = Reference.Sparse.raw (Reference.Sparse.finalize b) in
  same_csr (what ^ " (of_rows)") expected
    (Sparse.raw (Sparse.of_rows ~rows ~cols (fun i emit -> List.iter (fun (j, v) -> emit j v) (row i))));
  let ts = List.concat (List.init rows (fun i -> List.map (fun (j, v) -> (rows - 1 - i, j, v)) (row (rows - 1 - i)))) in
  let b = Reference.Sparse.builder ~rows ~cols in
  List.iter (fun (i, j, v) -> Reference.Sparse.add b i j v) ts;
  same_csr (what ^ " (of_triplets)")
    (Reference.Sparse.raw (Reference.Sparse.finalize b))
    (Sparse.raw (Sparse.of_triplets ~rows ~cols ts))

(* --- inputs ----------------------------------------------------------- *)

let test_gen_chains () =
  for seed = 1 to 300 do
    let r = Srng.make seed in
    let n, rates = Gen.acyclic_rates r in
    check_rates (Printf.sprintf "acyclic seed %d" seed) n rates;
    let n, rates = Gen.irreducible_rates r in
    check_rates (Printf.sprintf "irreducible seed %d" seed) n rates
  done

(* 60 entries over columns 1..49 in a scrambled order, most cells hit
   more than once, magnitudes spread so the summation order shows *)
let long_row =
  List.init 60 (fun k -> (1 + (k * 37 mod 49), Float.ldexp (1.0 +. (float_of_int k /. 7.0)) (k mod 5 * 13)))

let test_hand_made_chains () =
  List.iter
    (fun (what, n, rates) -> check_rates what n rates)
    [ ("absorbing state with no diagonal", 3, [ (0, 1, 1.0); (1, 2, 2.0) ]);
      ("q_ij / lambda underflows to zero", 2, [ (0, 1, 1e300); (1, 0, 1e-30) ]);
      ( "three and more duplicates in a cell", 2,
        [ (0, 1, 1e16); (0, 1, 1.0); (0, 1, 1.0); (1, 0, 0.1); (1, 0, 0.2); (1, 0, 0.3); (1, 0, 0.7) ] );
      ( "row in decreasing column order", 6,
        [ (0, 5, 0.5); (0, 4, 0.25); (0, 3, 1e-3); (0, 4, 3.0); (0, 2, 2.0); (0, 1, 0.1); (5, 0, 1.0) ] );
      ("empty rows", 4, [ (1, 2, 1.0) ]);
      ("row past the insertion-sort cutoff", 50, List.map (fun (j, r) -> (0, j, r)) long_row @ [ (7, 0, 2.0) ]);
      ("zero rates are not entries", 3, [ (0, 1, 0.0); (0, 2, 1.0); (2, 0, 0.0); (2, 1, 4.0) ]) ]

let test_hand_made_rows () =
  let rows_of l i = try List.assoc i l with Not_found -> [] in
  List.iter
    (fun (what, rows, cols, l) -> check_sparse what ~rows ~cols (rows_of l))
    [ ("a zero entry", 2, 3, [ (0, [ (1, 0.0); (2, 1.0) ]); (1, [ (0, -0.0) ]) ]);
      ("a zero sum", 2, 2, [ (0, [ (1, 1.5); (0, 2.0); (1, -1.5) ]); (1, [ (1, 1.0); (1, -1.0); (1, 2.0) ]) ]);
      ("three and more duplicates in a cell", 1, 2, [ (0, [ (1, 0.1); (1, 0.2); (1, 0.3); (0, 1e16); (0, 1.0); (0, 1.0) ]) ]);
      ("decreasing column order", 1, 5, [ (0, [ (4, 1.0); (3, 2.0); (2, 3.0); (1, 4.0); (0, 5.0) ]) ]);
      ("empty rows", 4, 4, [ (2, [ (3, 1.0) ]) ]);
      ("row past the insertion-sort cutoff", 2, 50, [ (1, long_row @ List.map (fun (j, v) -> (j, -.v /. 3.0)) long_row) ]) ]

(* [Reach.build] emits each chain row through [Ctmc.of_rows]; these
   fingerprints (generator, exit rates, lambda, P, P^T, every bit) were
   taken with the triplet builder and the P-then-transpose
   uniformization *)
let mix h x = ((h lxor x) * 0x100000001b3) land max_int

let mix_csr h m =
  let rp, ci, vs = Sparse.raw m in
  let h = Array.fold_left mix (mix h (Sparse.rows m)) rp in
  let h = Array.fold_left mix h ci in
  Array.fold_left (fun h v -> mix h (Int64.to_int (bits v))) h vs

let fingerprint c =
  let lambda, pt = Ctmc.uniformized c in
  let _, p = Ctmc.uniformized_dtmc c in
  let h = ref (mix_csr 0x4bf29ce484222325 (Ctmc.generator c)) in
  for i = 0 to Ctmc.n_states c - 1 do
    h := mix !h (Int64.to_int (bits (Ctmc.exit_rate c i)))
  done;
  Printf.sprintf "%x" (mix_csr (mix_csr (mix !h (Int64.to_int (bits lambda))) p) pt)

(* and the chain's uniformization equals the reference's on its own Q *)
let same_uniformization what c =
  let n = Ctmc.n_states c in
  let rp, ci, vs = Sparse.raw (Ctmc.generator c) in
  let r =
    { Reference.n; q = { Reference.Sparse.rows = n; cols = n; row_ptr = rp; col_idx = ci; values = vs };
      exit = Array.init n (Ctmc.exit_rate c); unif = None }
  in
  same_chain what r c

let wfs c =
  let one _ = 1 in
  let lw = 1e-4 and lf = 5e-5 and muw = 1.0 and muf = 0.5 in
  let t name ?(kind = Net.Timed) rate ~ins ~outs ?(inh = []) () =
    { Net.t_name = name; kind; rate; guard = (fun _ -> true); priority = 0;
      inputs = ins; outputs = outs; inhibitors = inh }
  in
  Net.build
    ~places:[ ("wsup", 500); ("fsup", 1); ("wst", 0); ("wsdn", 0); ("fsdn", 0) ]
    ~transitions:
      [ t "wsfl" (fun m -> float_of_int m.(0) *. lw) ~ins:[ (0, one) ] ~outs:[ (2, one) ]
          ~inh:[ (4, one) ] ();
        t "fsfl" (fun _ -> lf) ~ins:[ (1, one) ] ~outs:[ (4, one) ] ~inh:[ (3, fun _ -> 2) ] ();
        t "wsrp" (fun _ -> muw) ~ins:[ (3, one) ] ~outs:[ (0, one) ] ~inh:[ (4, one) ] ();
        t "fsrp" (fun _ -> muf) ~ins:[ (4, one) ] ~outs:[ (1, one) ] ();
        t "wscv" ~kind:Net.Immediate (fun _ -> c) ~ins:[ (2, one) ] ~outs:[ (3, one) ] ();
        t "wsuc" ~kind:Net.Immediate (fun _ -> 1.0 -. c) ~ins:[ (2, one); (1, one) ]
          ~outs:[ (3, one); (4, one) ] () ]

let test_wfs_chains () =
  List.iter
    (fun (c, want) ->
      let chain = Reach.ctmc (Reach.build (wfs c)) in
      Alcotest.(check int) "tangible markings" 1002 (Ctmc.n_states chain);
      Alcotest.(check string) (Printf.sprintf "wfs(500) at c = %g" c) want (fingerprint chain);
      same_uniformization (Printf.sprintf "wfs(500) at c = %g" c) chain)
    [ (0.7, "37f59310b8ba869a"); (0.8, "333c7d8f59baf8c4"); (0.93, "1ca57831cc8057a8") ]

let test_gen_srn_chains () =
  let h = ref "" in
  for seed = 1 to 100 do
    let chain = Reach.ctmc (Reach.build (Gen.srn (Srng.make seed))) in
    same_uniformization (Printf.sprintf "Gen.srn seed %d" seed) chain;
    h := Digest.to_hex (Digest.string (!h ^ fingerprint chain))
  done;
  Alcotest.(check string) "Gen.srn seeds 1..100" "f44a7e07d38db8d90bed13ef4de6fb1d" !h

(* Assembling a chain and its uniformization costs a bounded number of
   words per generator nonzero.  On this 10 000-state birth-death chain
   (64-bit OCaml 5.1) the triplet builder with the P-then-transpose
   uniformization allocated 46.3 words per nonzero, and the row
   assembler with P^T built from Q allocates 15.7. *)
let test_allocation_per_nonzero () =
  let n = 10_000 in
  let build () =
    let c =
      Ctmc.of_rows ~n (fun i emit ->
          if i + 1 < n then emit (i + 1) 1.0;
          if i > 0 then emit (i - 1) (2.0 +. float_of_int (i mod 7)))
    in
    ignore (Ctmc.uniformized c);
    c
  in
  ignore (build ());
  let a0 = Gc.allocated_bytes () in
  let c = build () in
  let words = (Gc.allocated_bytes () -. a0) /. float_of_int (Sys.word_size / 8) in
  let per_nnz = words /. float_of_int (Sparse.nnz (Ctmc.generator c)) in
  if per_nnz > 24.0 then
    Alcotest.failf "of_rows + uniformized: %.1f words per nonzero, bound 24" per_nnz

let suite =
  [ ("Gen chains = reference", `Quick, test_gen_chains);
    ("hand-made chains = reference", `Quick, test_hand_made_chains);
    ("hand-made rows = reference", `Quick, test_hand_made_rows);
    ("wfs(500) chains = reference fingerprints", `Quick, test_wfs_chains);
    ("Gen SRN chains = reference fingerprints", `Quick, test_gen_srn_chains);
    ("assembly words per nonzero", `Quick, test_allocation_per_nonzero) ]
