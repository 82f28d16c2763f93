(* Unit and property tests for the numerics substrate. *)
open Sharpe_numerics

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Dense matrices                                                      *)

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Matrix.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c01" 22.0 (Matrix.get c 0 1);
  check_float "c10" 43.0 (Matrix.get c 1 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_identity () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let i = Matrix.identity 2 in
  Alcotest.(check bool) "a*I = a" true (Matrix.equal (Matrix.mul a i) a);
  Alcotest.(check bool) "I*a = a" true (Matrix.equal (Matrix.mul i a) a)

let test_matrix_transpose () =
  let a = Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let t = Matrix.transpose a in
  Alcotest.(check int) "rows" 3 (Matrix.rows t);
  Alcotest.(check int) "cols" 2 (Matrix.cols t);
  check_float "t21" 6.0 (Matrix.get t 2 1)

let test_mat_vec () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let v = Matrix.mat_vec a [| 1.; 1. |] in
  check_float "mv0" 3.0 v.(0);
  check_float "mv1" 7.0 v.(1);
  let w = Matrix.vec_mat [| 1.; 1. |] a in
  check_float "vm0" 4.0 w.(0);
  check_float "vm1" 6.0 w.(1)

let test_matrix_shape_errors () =
  let a = Matrix.of_arrays [| [| 1.; 2. |] |] in
  Alcotest.check_raises "mul shape" (Invalid_argument "Matrix.mul: shape") (fun () ->
      ignore (Matrix.mul a a))

(* ------------------------------------------------------------------ *)
(* Sparse matrices                                                     *)

let test_sparse_roundtrip () =
  let d = Matrix.of_arrays [| [| 0.; 2.; 0. |]; [| 1.; 0.; 3. |]; [| 0.; 0.; 0. |] |] in
  let s = Sparse.of_dense d in
  Alcotest.(check int) "nnz" 3 (Sparse.nnz s);
  Alcotest.(check bool) "roundtrip" true (Matrix.equal (Sparse.to_dense s) d)

let test_sparse_dup_sum () =
  let s = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 1, 1.5); (0, 1, 2.5); (1, 0, 1.0) ] in
  check_float "summed" 4.0 (Sparse.get s 0 1);
  check_float "other" 1.0 (Sparse.get s 1 0);
  check_float "absent" 0.0 (Sparse.get s 0 0)

let test_sparse_vec_mat () =
  let s = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.); (0, 1, 2.); (1, 0, 3.); (1, 1, 4.) ] in
  let w = Sparse.vec_mat [| 1.; 1. |] s in
  check_float "vm0" 4.0 w.(0);
  check_float "vm1" 6.0 w.(1);
  let v = Sparse.mat_vec s [| 1.; 1. |] in
  check_float "mv0" 3.0 v.(0);
  check_float "mv1" 7.0 v.(1)

let test_sparse_transpose () =
  let s = Sparse.of_triplets ~rows:2 ~cols:3 [ (0, 2, 5.); (1, 0, 7.) ] in
  let t = Sparse.transpose s in
  Alcotest.(check int) "rows" 3 (Sparse.rows t);
  check_float "t20" 5.0 (Sparse.get t 2 0);
  check_float "t01" 7.0 (Sparse.get t 0 1)

(* ------------------------------------------------------------------ *)
(* Linear solvers                                                      *)

let test_gauss_small () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Linsolve.gauss a [| 5.; 10. |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 3.0 x.(1)

let test_gauss_pivoting () =
  (* zero pivot forces a row swap *)
  let a = Matrix.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Linsolve.gauss a [| 2.; 3. |] in
  check_float "x0" 3.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_gauss_singular () =
  let a = Matrix.of_arrays [| [| 1.; 1. |]; [| 2.; 2. |] |] in
  Alcotest.check_raises "singular" Linsolve.Singular (fun () ->
      ignore (Linsolve.gauss a [| 1.; 2. |]))

let test_inverse () =
  let a = Matrix.of_arrays [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let ai = Linsolve.inverse a in
  Alcotest.(check bool) "a * a^-1 = I" true
    (Matrix.equal ~eps:1e-12 (Matrix.mul a ai) (Matrix.identity 2))

let test_gauss_seidel () =
  (* diagonally dominant system *)
  let a =
    Sparse.of_triplets ~rows:3 ~cols:3
      [ (0, 0, 4.); (0, 1, -1.); (1, 0, -1.); (1, 1, 4.); (1, 2, -1.); (2, 1, -1.); (2, 2, 4.) ]
  in
  let b = [| 3.; 2.; 3. |] in
  let x, stats = Linsolve.gauss_seidel a b in
  let exact = Linsolve.gauss (Sparse.to_dense a) b in
  Array.iteri (fun i v -> check_float_loose (Printf.sprintf "x%d" i) exact.(i) v) x;
  Alcotest.(check bool) "converged" true (stats.Linsolve.residual < 1e-9)

let test_sor_matches_gs () =
  let a = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 3.); (0, 1, 1.); (1, 0, 1.); (1, 1, 3.) ] in
  let b = [| 4.; 4. |] in
  let x1, _ = Linsolve.gauss_seidel a b in
  let x2, _ = Linsolve.sor ~omega:1.2 a b in
  Array.iteri (fun i v -> check_float_loose (Printf.sprintf "x%d" i) x1.(i) v) x2

let birth_death_generator n lambda mu =
  let b = Sparse.builder ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    let out = ref 0.0 in
    if i < n - 1 then begin
      Sparse.add b i (i + 1) lambda;
      out := !out +. lambda
    end;
    if i > 0 then begin
      Sparse.add b i (i - 1) (float_of_int i *. mu);
      out := !out +. (float_of_int i *. mu)
    end;
    Sparse.add b i i (-. !out)
  done;
  Sparse.finalize b

let test_ctmc_steady_birth_death () =
  (* M/M/1/4-like chain: pi_i proportional to rho^i / i! (Erlang) *)
  let lambda = 2.0 and mu = 1.0 in
  let q = birth_death_generator 5 lambda mu in
  let pi = Linsolve.ctmc_steady_state q in
  let rho = lambda /. mu in
  let fact i = Array.fold_left ( *. ) 1.0 (Array.init i (fun k -> float_of_int (k + 1))) in
  let unnorm = Array.init 5 (fun i -> Float.pow rho (float_of_int i) /. fact i) in
  let z = Array.fold_left ( +. ) 0.0 unnorm in
  Array.iteri
    (fun i v -> check_float_loose (Printf.sprintf "pi%d" i) (unnorm.(i) /. z) v)
    pi

let test_dtmc_steady () =
  let p =
    Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 0.5); (0, 1, 0.5); (1, 0, 0.25); (1, 1, 0.75) ]
  in
  let pi = Linsolve.dtmc_steady_state p in
  check_float_loose "pi0" (1.0 /. 3.0) pi.(0);
  check_float_loose "pi1" (2.0 /. 3.0) pi.(1)

(* ------------------------------------------------------------------ *)
(* Poisson                                                             *)

let test_poisson_sums_to_one () =
  List.iter
    (fun m ->
      let w = Poisson.window m in
      let s = Array.fold_left ( +. ) 0.0 w.Poisson.weights in
      check_float (Printf.sprintf "sum m=%g" m) 1.0 s)
    [ 0.0; 0.5; 1.0; 10.0; 100.0; 5000.0 ]

let test_poisson_pmf_small () =
  check_float "pmf(1,0)" (exp (-1.0)) (Poisson.pmf 1.0 0);
  check_float "pmf(1,1)" (exp (-1.0)) (Poisson.pmf 1.0 1);
  check_float "pmf(2,2)" (2.0 *. exp (-2.0)) (Poisson.pmf 2.0 2)

let test_poisson_window_covers_mode () =
  let w = Poisson.window 50.0 in
  Alcotest.(check bool) "left <= 50" true (w.Poisson.left <= 50);
  Alcotest.(check bool) "right >= 50" true (w.Poisson.right >= 50)

let test_poisson_window_tail_mass () =
  (* the truncation contract: the mass OUTSIDE [left, right] is at most
     eps.  Sum exact (unrenormalized) pmf values over the window and
     check the complement, for a small, a moderate and a stiff mean —
     truncating on individual pmf values instead of cumulative tail
     mass violates this for large m, where thousands of terms each
     below eps/2 add up to far more than eps. *)
  let eps = 1e-12 in
  List.iter
    (fun m ->
      let w = Poisson.window ~eps m in
      let s = ref 0.0 in
      for k = w.Poisson.left to w.Poisson.right do
        s := !s +. Poisson.pmf m k
      done;
      Alcotest.(check bool)
        (Printf.sprintf "tail mass m=%g (left %.3g)" m (1.0 -. !s))
        true
        (1.0 -. !s <= eps))
    [ 0.5; 50.0; 5000.0 ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let prop_gauss_solves =
  QCheck.Test.make ~name:"gauss solves random diag-dominant systems" ~count:100
    QCheck.(
      pair (int_range 1 8)
        (list_of_size (Gen.return 80) (float_range (-1.0) 1.0)))
    (fun (n, xs) ->
      let xs = Array.of_list xs in
      let a = Matrix.create ~rows:n ~cols:n in
      let k = ref 0 in
      let next () =
        let v = xs.(!k mod Array.length xs) in
        incr k;
        v
      in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Matrix.set a i j (next ())
        done;
        Matrix.set a i i (float_of_int n +. 1.0 +. Float.abs (next ()))
      done;
      let b = Array.init n (fun _ -> next ()) in
      let x = Linsolve.gauss a b in
      let r = Matrix.mat_vec a x in
      Array.for_all2 (fun ri bi -> Float.abs (ri -. bi) < 1e-8) r b)

let prop_sparse_dense_agree =
  QCheck.Test.make ~name:"sparse and dense vec_mat agree" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (triple (int_bound 5) (int_bound 5) (float_range (-10.) 10.)))
    (fun ts ->
      let ts = List.map (fun (i, j, v) -> (i, j, v)) ts in
      let s = Sparse.of_triplets ~rows:6 ~cols:6 ts in
      let d = Sparse.to_dense s in
      let v = Array.init 6 (fun i -> float_of_int (i + 1)) in
      let a = Sparse.vec_mat v s and b = Matrix.vec_mat v d in
      Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) a b)

(* Reference CSR assembly: drop zero inputs, stable-sort by (row, column),
   sum each cell's entries left to right, drop zero sums.  Returns the
   cells as (row, column, sum, number of entries summed). *)
let reference_cells ts =
  let ts = List.filter (fun (_, _, v) -> v <> 0.0) ts in
  let ts = List.stable_sort (fun (i1, j1, _) (i2, j2, _) -> compare (i1, j1) (i2, j2)) ts in
  let rec merge = function
    | [] -> []
    | (i, j, v) :: rest ->
        let rec take s k = function
          | (i', j', v') :: tl when i' = i && j' = j -> take (s +. v') (k + 1) tl
          | tl -> (s, k, tl)
        in
        let s, k, rest = take v 1 rest in
        if s <> 0.0 then (i, j, s, k) :: merge rest else merge rest
  in
  merge ts

(* Exact structure; values bit-equal wherever a cell summed at most two
   entries (two-term sums are order-free), within 1e-12 otherwise. *)
let matches_reference ~rows ts m =
  let cells = reference_cells ts in
  let row_ptr, col_idx, values = Sparse.raw m in
  let counts = Array.make (rows + 1) 0 in
  List.iter (fun (i, _, _, _) -> counts.(i + 1) <- counts.(i + 1) + 1) cells;
  for i = 1 to rows do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  counts = row_ptr
  && List.length cells = Array.length col_idx
  && List.for_all2
       (fun (_, j, s, k) (j', v) ->
         j = j'
         && (if k <= 2 then Int64.bits_of_float s = Int64.bits_of_float v
             else Float.abs (s -. v) <= 1e-12 *. Float.max 1.0 (Float.abs s)))
       cells
       (List.combine (Array.to_list col_idx) (Array.to_list values))

(* Triplets over a few rows and columns, so cells collect duplicates and
   some rows stay empty; values on a small integer grid, so many cells
   cancel to exactly zero, mixed with arbitrary floats.  Up to 300 entries
   over as few as one row also exercises the long-row sort. *)
let triplets_gen =
  QCheck.Gen.(
    int_range 1 8 >>= fun rows ->
    int_range 1 8 >>= fun cols ->
    let value =
      frequency
        [ (3, map float_of_int (int_range (-3) 3)); (1, float_range (-10.) 10.) ]
    in
    list_size (int_bound 300) (triple (int_bound (rows - 1)) (int_bound (cols - 1)) value)
    >|= fun ts -> (rows, cols, ts))

let triplets_arb =
  QCheck.make
    ~print:(fun (r, c, ts) ->
      Printf.sprintf "%dx%d %s" r c
        (String.concat " " (List.map (fun (i, j, v) -> Printf.sprintf "(%d,%d,%h)" i j v) ts)))
    triplets_gen

let prop_finalize_reference =
  QCheck.Test.make ~name:"finalize equals sort-and-merge reference" ~count:300
    triplets_arb (fun (rows, cols, ts) ->
      matches_reference ~rows ts (Sparse.of_triplets ~rows ~cols ts))

let prop_of_rows_reference =
  QCheck.Test.make ~name:"of_rows equals sort-and-merge reference" ~count:300
    triplets_arb (fun (rows, cols, ts) ->
      let m =
        Sparse.of_rows ~rows ~cols (fun i ->
            List.filter_map (fun (i', j, v) -> if i' = i then Some (j, v) else None) ts)
      in
      matches_reference ~rows ts m)

let suite =
  [ ("matrix mul", `Quick, test_matrix_mul);
    ("matrix identity", `Quick, test_matrix_identity);
    ("matrix transpose", `Quick, test_matrix_transpose);
    ("mat_vec / vec_mat", `Quick, test_mat_vec);
    ("matrix shape errors", `Quick, test_matrix_shape_errors);
    ("sparse roundtrip", `Quick, test_sparse_roundtrip);
    ("sparse duplicate summing", `Quick, test_sparse_dup_sum);
    ("sparse vec_mat", `Quick, test_sparse_vec_mat);
    ("sparse transpose", `Quick, test_sparse_transpose);
    ("gauss 2x2", `Quick, test_gauss_small);
    ("gauss pivoting", `Quick, test_gauss_pivoting);
    ("gauss singular", `Quick, test_gauss_singular);
    ("matrix inverse", `Quick, test_inverse);
    ("gauss-seidel", `Quick, test_gauss_seidel);
    ("sor matches gs", `Quick, test_sor_matches_gs);
    ("ctmc steady state birth-death", `Quick, test_ctmc_steady_birth_death);
    ("dtmc steady state", `Quick, test_dtmc_steady);
    ("poisson sums to one", `Quick, test_poisson_sums_to_one);
    ("poisson small pmf", `Quick, test_poisson_pmf_small);
    ("poisson window covers mode", `Quick, test_poisson_window_covers_mode);
    ("poisson window tail mass", `Quick, test_poisson_window_tail_mass);
    QCheck_alcotest.to_alcotest prop_gauss_solves;
    QCheck_alcotest.to_alcotest prop_sparse_dense_agree;
    QCheck_alcotest.to_alcotest prop_finalize_reference;
    QCheck_alcotest.to_alcotest prop_of_rows_reference ]
