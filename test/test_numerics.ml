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
  let ai = Linsolve.inverse (Matrix.copy a) in
  Alcotest.(check bool) "a * a^-1 = I" true
    (Matrix.equal ~eps:1e-12 (Matrix.mul a ai) (Matrix.identity 2))

let test_gauss_seidel () =
  (* diagonally dominant system *)
  let a =
    Sparse.of_triplets ~rows:3 ~cols:3
      [ (0, 0, 4.); (0, 1, -1.); (1, 0, -1.); (1, 1, 4.); (1, 2, -1.); (2, 1, -1.); (2, 2, 4.) ]
  in
  let b = [| 3.; 2.; 3. |] in
  let x, recs =
    Diag.capture (fun () -> Linsolve.with_method Gauss_seidel (fun () -> Linsolve.solve a b))
  in
  let exact = Linsolve.gauss (Sparse.to_dense a) (Array.copy b) in
  Array.iteri (fun i v -> check_float_loose (Printf.sprintf "x%d" i) exact.(i) v) x;
  Alcotest.(check int) "converged: no records" 0 (List.length recs);
  Alcotest.(check bool) "residual" true (Linsolve.residual_inf a x b < 1e-9)

let test_sor_matches_gs () =
  let a = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 3.); (0, 1, 1.); (1, 0, 1.); (1, 1, 3.) ] in
  let b = [| 4.; 4. |] in
  let x1 = Linsolve.with_method Gauss_seidel (fun () -> Linsolve.solve a b) in
  let x2 = Linsolve.with_method Sor (fun () -> Linsolve.solve a b) in
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
      let x = Linsolve.gauss (Matrix.copy a) (Array.copy b) in
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
        Sparse.of_rows ~rows ~cols (fun i emit ->
            List.iter (fun (i', j, v) -> if i' = i then emit j v) ts)
      in
      matches_reference ~rows ts m)

(* ------------------------------------------------------------------ *)
(* Elimination kernels, bit for bit against their earlier form         *)

(* The kernels as they were before banded GTH walked only the pivot
   row's positive entries and dense elimination indexed raw row-major
   storage and solved every right-hand side in one pass: the reference
   the current kernels must reproduce bit for bit. *)
module Reference = struct
  exception Singular

  let gauss_in_place a b =
    let n = Array.length b in
    if Matrix.rows a <> n || Matrix.cols a <> n then invalid_arg "Linsolve.gauss: shape";
    for k = 0 to n - 1 do
      (* partial pivoting *)
      let piv = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (Matrix.get a i k) > Float.abs (Matrix.get a !piv k) then piv := i
      done;
      if !piv <> k then begin
        for j = 0 to n - 1 do
          let t = Matrix.get a k j in
          Matrix.set a k j (Matrix.get a !piv j);
          Matrix.set a !piv j t
        done;
        let t = b.(k) in
        b.(k) <- b.(!piv);
        b.(!piv) <- t
      end;
      let akk = Matrix.get a k k in
      if Float.abs akk < 1e-300 then raise Singular;
      for i = k + 1 to n - 1 do
        let f = Matrix.get a i k /. akk in
        if f <> 0.0 then begin
          Matrix.set a i k 0.0;
          for j = k + 1 to n - 1 do
            Matrix.set a i j (Matrix.get a i j -. (f *. Matrix.get a k j))
          done;
          b.(i) <- b.(i) -. (f *. b.(k))
        end
      done
    done;
    (* back substitution *)
    let x = Array.make n 0.0 in
    for i = n - 1 downto 0 do
      let s = ref b.(i) in
      for j = i + 1 to n - 1 do
        s := !s -. (Matrix.get a i j *. x.(j))
      done;
      x.(i) <- !s /. Matrix.get a i i
    done;
    x

  let gauss a b = gauss_in_place (Matrix.copy a) (Array.copy b)
  let gauss_matrix a bm =
    let out = Matrix.create ~rows:(Matrix.rows a) ~cols:(Matrix.cols bm) in
    for j = 0 to Matrix.cols bm - 1 do
      Array.iteri (fun i v -> Matrix.set out i j v) (gauss a (Matrix.col bm j))
    done;
    out

  let normalize_l1 x =
    let s = Array.fold_left ( +. ) 0.0 x in
    if s <> 0.0 then Array.iteri (fun i v -> x.(i) <- v /. s) x

  let ctmc_gth_banded q bw =
    let n = Sparse.rows q in
    let w = (2 * bw) + 1 in
    let band = Array.make_matrix n w 0.0 in
    Sparse.iter q (fun i j v -> if i <> j then band.(i).(j - i + bw) <- v);
    let s = Array.make n 0.0 in
    let ok = ref true and k = ref (n - 1) in
    while !ok && !k >= 1 do
      let kk = !k in
      let lo = max 0 (kk - bw) in
      let sk = ref 0.0 in
      for j = lo to kk - 1 do
        sk := !sk +. band.(kk).(j - kk + bw)
      done;
      if !sk <= 0.0 then ok := false
      else begin
        s.(kk) <- !sk;
        for i = lo to kk - 1 do
          let qik = band.(i).(kk - i + bw) in
          if qik > 0.0 then begin
            let f = qik /. !sk in
            for j = lo to kk - 1 do
              if j <> i then begin
                let qkj = band.(kk).(j - kk + bw) in
                if qkj > 0.0 then
                  band.(i).(j - i + bw) <- band.(i).(j - i + bw) +. (f *. qkj)
              end
            done
          end
        done
      end;
      decr k
    done;
    if not !ok then None
    else begin
      let pi = Array.make n 0.0 in
      pi.(0) <- 1.0;
      for kk = 1 to n - 1 do
        let lo = max 0 (kk - bw) in
        let acc = ref 0.0 in
        for i = lo to kk - 1 do
          acc := !acc +. (pi.(i) *. band.(i).(kk - i + bw))
        done;
        pi.(kk) <- !acc /. s.(kk)
      done;
      normalize_l1 pi;
      Some pi
    end
end

let bits a = Array.map Int64.bits_of_float a

let same_bits what x y =
  Alcotest.(check int) (what ^ ": length") (Array.length x) (Array.length y);
  Array.iteri
    (fun i v ->
      if Int64.bits_of_float v <> Int64.bits_of_float y.(i) then
        Alcotest.failf "%s: entry %d differs, %h against %h" what i v y.(i))
    x

let check_gth what q =
  let bw = ref 0 in
  Sparse.iter q (fun i j _ -> bw := max !bw (abs (i - j)));
  match (Reference.ctmc_gth_banded q !bw, Linsolve.ctmc_gth_banded q !bw) with
  | None, None -> `None
  | Some x, Some y -> same_bits what x y; `Some
  | _ -> Alcotest.failf "%s: one kernel eliminated, the other found no lower move" what

(* A random banded generator: each in-band cell holds a rate with
   probability [density], rates mixing small integers and arbitrary
   floats; with [holes], a few rows get no move to a lower state. *)
let banded_generator rng ~n ~bw ~density ~holes =
  let rate () =
    if Random.State.bool rng then float_of_int (1 + Random.State.int rng 5)
    else Random.State.float rng 10.0 +. 1e-3
  in
  let cut = Array.init n (fun _ -> holes && Random.State.int rng 50 = 0) in
  let ts = ref [] in
  for i = 0 to n - 1 do
    let out = ref 0.0 in
    for j = max 0 (i - bw) to min (n - 1) (i + bw) do
      if j <> i && (not (cut.(i) && j < i)) && Random.State.float rng 1.0 < density then begin
        let r = rate () in
        out := !out +. r;
        ts := (i, j, r) :: !ts
      end
    done;
    (* a neighbour move keeps most chains irreducible *)
    if i > 0 && not cut.(i) then begin
      ts := (i, i - 1, 0.5) :: !ts;
      out := !out +. 0.5
    end;
    ts := (i, i, -. !out) :: !ts
  done;
  Sparse.of_triplets ~rows:n ~cols:n !ts

(* The composite performability chain [cp] of examples/sharpe/erlang_loss
   at C channels, states numbered in order of first appearance *)
let erlang_cp c =
  let lambda = 49.0 and mu = 3.0 and mttf = 1000.0 and mttr = 24.0 in
  let ids = Hashtbl.create 64 and ts = ref [] in
  let id s =
    match Hashtbl.find_opt ids s with
    | Some k -> k
    | None ->
        let k = Hashtbl.length ids in
        Hashtbl.add ids s k;
        k
  in
  let edge a b r = ts := (id a, id b, r) :: !ts in
  for j = 1 to c do
    for i = c downto j do
      let st i j = Printf.sprintf "%d_%d" i j in
      edge (st i (j - 1)) (st (i - 1) (j - 1)) (float_of_int (i - j + 1) /. mttf);
      edge (st (i - 1) (j - 1)) (st i (j - 1)) (1.0 /. mttr);
      edge (st i (j - 1)) (st i j) lambda;
      edge (st i j) (st i (j - 1)) (float_of_int j *. mu);
      edge (st i j) (st (i - 1) (j - 1)) (float_of_int j /. mttf)
    done
  done;
  let n = Hashtbl.length ids in
  let out = Array.make n 0.0 in
  List.iter (fun (i, _, r) -> out.(i) <- out.(i) +. r) (List.rev !ts);
  Sparse.of_triplets ~rows:n ~cols:n
    (List.rev !ts @ List.init n (fun i -> (i, i, -.out.(i))))

let test_gth_kernel_bits () =
  let rng = Random.State.make [| 20 |] in
  let some = ref 0 and none = ref 0 in
  for case = 1 to 60 do
    let n = if case mod 15 = 0 then 1200 else 2 + Random.State.int rng 300 in
    let bw = 1 + Random.State.int rng (min 100 (n - 1)) in
    let density = [| 0.05; 0.2; 0.5; 1.0 |].(Random.State.int rng 4) in
    let holes = case mod 3 = 0 in
    match check_gth (Printf.sprintf "case %d (n=%d bw=%d)" case n bw)
            (banded_generator rng ~n ~bw ~density ~holes) with
    | `Some -> incr some
    | `None -> incr none
  done;
  Alcotest.(check bool) "both outcomes exercised" true (!some > 0 && !none > 0);
  Alcotest.(check bool) "erlang cp at C = 45" true (check_gth "erlang cp" (erlang_cp 45) = `Some)

type outcome = Solved of int64 array | Singular_raised

let outcome f = try Solved (bits (f ())) with Linsolve.Singular | Reference.Singular -> Singular_raised

(* A random dense system with exact zeros, negative zeros, small
   integers (so eliminations cancel exactly), arbitrary floats and, now
   and then, an infinite entry; [singular] repeats a row. *)
let dense_system rng ~n ~singular =
  let entry () =
    match Random.State.int rng 10 with
    | 0 | 1 | 2 -> 0.0
    | 3 -> -0.0
    | 4 | 5 -> float_of_int (Random.State.int rng 7 - 3)
    | _ -> Random.State.float rng 2.0 -. 1.0
  in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> entry ())) in
  if Random.State.int rng 8 = 0 then
    a.(Random.State.int rng n).(Random.State.int rng n) <-
      (if Random.State.bool rng then Float.infinity else Float.neg_infinity);
  if singular && n > 1 then a.(n - 1) <- Array.copy a.(0);
  (Matrix.of_arrays a, entry)

let same_dense_outcome what a b =
  let r = outcome (fun () -> Reference.gauss a b) in
  if r <> outcome (fun () -> Linsolve.gauss (Matrix.copy a) (Array.copy b)) then
    Alcotest.failf "gauss, %s" what;
  r

let test_dense_kernel_bits () =
  (* Two systems where a pivot-row zero still counts.  Eliminating the
     first column subtracts [f *. -0.0] from a [-0.0] for [f] > 0, which
     leaves [+0.0]; back substitution over signed zeros keeps that sign
     in the solution.  In the second, the first step puts an infinity in
     two rows of the next column, whose multiplier is then inf / inf =
     NaN, and NaN times a zero pivot-row entry is NaN. *)
  let fixed = [
    ("signed zeros", [| [| -1.; 0.; -0. |]; [| -2.; 3.; -0. |]; [| 0.; 0.; -4. |] |], [| -0.; 0.; 0. |]);
    ("NaN multiplier", [| [| -1.; -0.; 0. |]; [| -0.5; 0.; 0. |]; [| 3.; Float.infinity; -0. |] |], [| 0.; 0.; -0. |]) ]
  in
  List.iter (fun (what, a, b) -> ignore (same_dense_outcome what (Matrix.of_arrays a) b)) fixed;
  let rng = Random.State.make [| 21 |] in
  let solved = ref 0 and singular = ref 0 in
  for case = 1 to 2000 do
    let n = 1 + Random.State.int rng (if case mod 10 = 0 then 40 else 8) in
    let a, entry = dense_system rng ~n ~singular:(case mod 5 = 0) in
    (* a right-hand side of signed zeros makes the solution's zero signs
       depend on every zero the elimination leaves in [a] *)
    let zeros = case mod 4 = 0 in
    let entry () = if zeros then (if Random.State.bool rng then 0.0 else -0.0) else entry () in
    let b = Array.init n (fun _ -> entry ()) in
    let what = Printf.sprintf "case %d (n=%d)" case n in
    (match same_dense_outcome what a b with
     | Solved _ -> incr solved
     | Singular_raised -> incr singular);
    let m = Random.State.int rng 5 in
    let bm = Matrix.of_arrays (Array.init n (fun _ -> Array.init m (fun _ -> entry ()))) in
    let flat x = Array.concat (List.init (Matrix.rows x) (Matrix.row x)) in
    if outcome (fun () -> flat (Reference.gauss_matrix a bm))
       <> outcome (fun () -> flat (Linsolve.gauss_matrix (Matrix.copy a) (Matrix.copy bm)))
    then Alcotest.failf "gauss_matrix with %d columns, %s" m what
  done;
  Alcotest.(check bool) "both outcomes exercised" true (!solved > 0 && !singular > 0)

(* The direct steady-state solve eliminates the matrix it assembles
   rather than a copy of it: one n x n matrix allocated, not two, and
   the same bits [gauss] gives on the same system. *)
let test_direct_steady_in_place () =
  let n = 400 in
  let rng = Random.State.make [| 22 |] in
  let q = banded_generator rng ~n ~bw:6 ~density:0.5 ~holes:false in
  let a, b = Linsolve.ctmc_krylov_system q in
  let expected = Linsolve.gauss (Sparse.to_dense a) b in
  (* the runtime adds a domain's direct major allocations to its
     counters at the end of a major slice: full cycles on both sides
     settle them, so the difference counts this solve alone *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let pi = Linsolve.steady_state_direct q in
  Gc.full_major ();
  let used = Gc.allocated_bytes () -. before in
  let matrix = 8.0 *. float_of_int (n * n) in
  if used >= 1.5 *. matrix then
    Alcotest.failf "steady_state_direct allocated %.0f bytes, %.2f n x n matrices" used
      (used /. matrix);
  same_bits "steady_state_direct against gauss" expected pi

(* [inverse] eliminates the matrix it is handed into the identity it
   allocates: one n x n matrix, and each column the bits of a one-column
   solve. *)
let test_inverse_in_place () =
  let n = 400 in
  let rng = Random.State.make [| 23 |] in
  let a = Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Matrix.set a i j (Random.State.float rng 2.0 -. 1.0)
    done;
    Matrix.add_to a i i (float_of_int n)
  done;
  let a0 = Matrix.copy a in
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let ai = Linsolve.inverse a in
  Gc.full_major ();
  let used = Gc.allocated_bytes () -. before in
  let matrix = 8.0 *. float_of_int (n * n) in
  if used >= 1.5 *. matrix then
    Alcotest.failf "inverse allocated %.0f bytes, %.2f n x n matrices" used (used /. matrix);
  (* a few columns against the one-column reference kernel *)
  List.iter
    (fun j ->
      let e = Array.init n (fun i -> if i = j then 1.0 else 0.0) in
      same_bits (Printf.sprintf "inverse column %d" j) (Reference.gauss a0 e) (Matrix.col ai j))
    [ 0; 199; n - 1 ]

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
    ("banded GTH bit-identical to the full-band loop", `Quick, test_gth_kernel_bits);
    ("dense elimination bit-identical to the per-entry loop", `Quick, test_dense_kernel_bits);
    ("direct steady state eliminates its own matrix", `Quick, test_direct_steady_in_place);
    ("inverse eliminates the matrix it is handed", `Quick, test_inverse_in_place);
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
