(* Property tests for the CSR kernels and Krylov solvers.

   The CSR kernels (mat-vec, transpose-mat-vec, of_rows, scale_rows) are
   confronted with a dense reference on random sparsity patterns; ILU(0)
   is checked for factor validity (exact inverse on elimination-closed
   patterns, convergence-grade approximation elsewhere); BiCGStab and
   GMRES must converge on diagonally dominant systems, including rows
   scaled across twelve orders of magnitude — the extreme rate
   separation stiff chains produce. *)

open Sharpe_numerics
module Q = QCheck

let rng_matrix ~n ~density st =
  let m = Matrix.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Q.Gen.float_bound_inclusive 1.0 st < density then
        Matrix.set m i j (Q.Gen.float_range (-2.0) 2.0 st)
    done
  done;
  m

(* strictly diagonally dominant: random off-diagonals, diagonal = row sum
   of magnitudes plus a positive margin *)
let dominant_matrix ~n ~density st =
  let m = rng_matrix ~n ~density st in
  for i = 0 to n - 1 do
    let s = ref 0.0 in
    for j = 0 to n - 1 do
      if i <> j then s := !s +. Float.abs (Matrix.get m i j)
    done;
    Matrix.set m i i (!s +. 0.5 +. Q.Gen.float_bound_inclusive 1.0 st)
  done;
  m

let sparse_arb =
  Q.make
    ~print:(fun m -> Format.asprintf "%a" Sparse.pp (Sparse.of_dense m))
    Q.Gen.(
      int_range 1 25 >>= fun n ->
      float_range 0.05 0.6 >>= fun density ->
      fun st -> rng_matrix ~n ~density st)

let dominant_arb =
  Q.make
    ~print:(fun m -> Format.asprintf "%a" Sparse.pp (Sparse.of_dense m))
    Q.Gen.(
      int_range 2 40 >>= fun n ->
      float_range 0.05 0.5 >>= fun density ->
      fun st -> dominant_matrix ~n ~density st)

let vec_of st n = Array.init n (fun _ -> Q.Gen.float_range (-3.0) 3.0 st)

let close ?(tol = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Float.abs (x -. y)
         <= tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y)))
       a b

let dense_mat_vec m v =
  Array.init (Matrix.rows m) (fun i ->
      let s = ref 0.0 in
      for j = 0 to Matrix.cols m - 1 do
        s := !s +. (Matrix.get m i j *. v.(j))
      done;
      !s)

let dense_vec_mat v m =
  Array.init (Matrix.cols m) (fun j ->
      let s = ref 0.0 in
      for i = 0 to Matrix.rows m - 1 do
        s := !s +. (v.(i) *. Matrix.get m i j)
      done;
      !s)

(* seeded deterministic vector so properties are reproducible from the
   QCheck seed alone *)
let test_vec m =
  let n = Matrix.cols m in
  Array.init n (fun i -> Float.of_int ((i * 37 mod 19) - 9) /. 7.0)

let prop_mat_vec =
  Q.Test.make ~name:"CSR mat_vec = dense mat-vec" ~count:200 sparse_arb (fun m ->
      let a = Sparse.of_dense m in
      let v = test_vec m in
      let out = Array.make (Matrix.rows m) nan in
      Sparse.mat_vec_into a v out;
      close (Sparse.mat_vec a v) (dense_mat_vec m v) && close out (dense_mat_vec m v))

let prop_vec_mat =
  Q.Test.make ~name:"CSR transpose-mat-vec = dense vec-mat" ~count:200 sparse_arb
    (fun m ->
      let a = Sparse.of_dense m in
      let v = test_vec m in
      let out = Array.make (Matrix.cols m) nan in
      Sparse.vec_mat_into v a out;
      close (Sparse.vec_mat v a) (dense_vec_mat v m)
      && close out (dense_vec_mat v m)
      (* transpose is an involution and vec_mat v a = mat_vec a^T v *)
      && close (Sparse.mat_vec (Sparse.transpose a) v) (dense_vec_mat v m))

let prop_transpose_roundtrip =
  Q.Test.make ~name:"transpose twice is the identity (bit-exact)" ~count:200
    sparse_arb (fun m ->
      let a = Sparse.of_dense m in
      let att = Sparse.transpose (Sparse.transpose a) in
      let rp, ci, v = Sparse.raw a and rp', ci', v' = Sparse.raw att in
      rp = rp' && ci = ci' && v = v')

let prop_of_rows =
  Q.Test.make ~name:"of_rows agrees with the triplet builder" ~count:200 sparse_arb
    (fun m ->
      let a = Sparse.of_dense m in
      let b =
        Sparse.of_rows ~rows:(Matrix.rows m) ~cols:(Matrix.cols m) (fun i emit ->
            Sparse.iter_row a i emit)
      in
      let rp, ci, v = Sparse.raw a and rp', ci', v' = Sparse.raw b in
      rp = rp' && ci = ci' && v = v')

let prop_scale_rows =
  Q.Test.make ~name:"scale_rows scales each row" ~count:200 sparse_arb (fun m ->
      let a = Sparse.of_dense m in
      let n = Matrix.rows m in
      let d = Array.init n (fun i -> 0.5 +. Float.of_int (i mod 5)) in
      let b = Sparse.scale_rows d a in
      let ok = ref true in
      Sparse.iter a (fun i j v ->
          if Sparse.get b i j <> v *. d.(i) then ok := false);
      !ok)

(* ILU(0) on a tridiagonal pattern is the exact LU factorization, so the
   preconditioner application must be the exact inverse. *)
let prop_ilu0_tridiag_exact =
  Q.Test.make ~name:"ILU(0) is exact on tridiagonal systems" ~count:100
    Q.(int_range 2 60)
    (fun n ->
      let m = Matrix.create ~rows:n ~cols:n in
      for i = 0 to n - 1 do
        Matrix.set m i i (4.0 +. Float.of_int (i mod 3));
        if i > 0 then Matrix.set m i (i - 1) (-1.0 -. Float.of_int (i mod 2));
        if i < n - 1 then Matrix.set m i (i + 1) (-1.0)
      done;
      let a = Sparse.of_dense m in
      match Krylov.ilu0 a with
      | None -> false
      | Some p ->
          let x = Array.init n (fun i -> Float.of_int ((i mod 7) - 3)) in
          let b = Sparse.mat_vec a x in
          let y = Array.make n 0.0 in
          p.Krylov.p_apply b y;
          close ~tol:1e-10 x y)

(* On general diagonally dominant patterns the factors need not be
   exact, but they must exist (no zero pivot) and be convergence-grade:
   one BiCGStab solve preconditioned with them reaches 1e-10. *)
let prop_ilu0_valid =
  Q.Test.make ~name:"ILU(0) factors exist and precondition to convergence"
    ~count:100 dominant_arb (fun m ->
      let a = Sparse.of_dense m in
      let n = Matrix.rows m in
      match Krylov.ilu0 a with
      | None -> false
      | Some p ->
          let xs = Array.init n (fun i -> Float.of_int ((i mod 5) - 2)) in
          let b = Sparse.mat_vec a xs in
          let x, st = Krylov.bicgstab ~tol:1e-10 ~precond:p a b in
          st.Krylov.converged
          && Linsolve.residual_inf a x b
             <= 1e-8 *. Float.max 1.0 (Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 b))

let relative_residual a x b =
  let bn =
    Float.max 1e-300
      (sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 b))
  in
  let r = Sparse.mat_vec a x in
  let s = ref 0.0 in
  Array.iteri (fun i v -> s := !s +. ((v -. b.(i)) ** 2.0)) r;
  sqrt !s /. bn

(* exact (hexadecimal) entries and row scales, so a failing case can be
   rebuilt and replayed *)
let print_scaled (m, scales) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "n = %d\n" (Matrix.rows m);
  Sparse.iter (Sparse.of_dense m) (fun i j v -> Printf.bprintf b "(%d,%d) = %h\n" i j v);
  Array.iteri (fun i s -> Printf.bprintf b "scale %d = %h\n" i s) scales;
  Buffer.contents b

(* Extreme rate separation: scale each row of a dominant system by a
   factor drawn across twelve orders of magnitude — the row scaling a
   stiff generator exhibits — and demand both Krylov solvers still
   converge to a small TRUE relative residual. *)
let scaled_arb =
  Q.make ~print:print_scaled
    Q.Gen.(
      int_range 2 30 >>= fun n ->
      float_range 0.05 0.4 >>= fun density ->
      fun st ->
        let m = dominant_matrix ~n ~density st in
        let scales =
          Array.init n (fun _ -> 10.0 ** Q.Gen.float_range (-6.0) 6.0 st)
        in
        (m, scales))

let krylov_converges solver (m, scales) =
  let a = Sparse.scale_rows scales (Sparse.of_dense m) in
  let n = Matrix.rows m in
  let xs = Array.init n (fun i -> Float.of_int ((i mod 9) - 4) /. 3.0) in
  let b = Sparse.mat_vec a xs in
  let precond =
    match Krylov.ilu0 a with
    | Some p -> p
    | None -> ( match Krylov.jacobi a with Some p -> p | None -> Krylov.identity)
  in
  let x, st = solver ~precond a b in
  st.Krylov.converged && relative_residual a x b <= 1e-8

let prop_bicgstab_separated =
  Q.Test.make ~name:"BiCGStab converges under extreme rate separation" ~count:100
    scaled_arb
    (krylov_converges (fun ~precond a b -> Krylov.bicgstab ~tol:1e-10 ~precond a b))

let prop_gmres_separated =
  Q.Test.make ~name:"GMRES converges under extreme rate separation" ~count:100
    scaled_arb
    (krylov_converges (fun ~precond a b -> Krylov.gmres ~tol:1e-10 ~precond a b))

(* The Krylov steady-state path must agree with direct elimination. *)
let prop_krylov_steady =
  Q.Test.make ~name:"Krylov CTMC steady state matches direct elimination"
    ~count:100
    (Q.make Q.Gen.(int_range 0 1_000_000))
    (fun seed ->
      let r = Sharpe_check.Srng.make seed in
      let c = Sharpe_check.Gen.irreducible_ctmc r in
      let q = Sharpe_markov.Ctmc.generator c in
      let direct = Linsolve.steady_state_direct q in
      Array.iteri (fun i v -> if v < 0.0 then direct.(i) <- 0.0) direct;
      let s = Array.fold_left ( +. ) 0.0 direct in
      Array.iteri (fun i v -> direct.(i) <- v /. s) direct;
      let check m =
        let pi, _ =
          Diag.capture (fun () ->
              Linsolve.with_method m (fun () ->
                  Linsolve.ctmc_steady_state ~direct_threshold:0 q))
        in
        close ~tol:1e-7 pi direct
      in
      check Linsolve.Bicgstab && check Linsolve.Gmres)

(* A seeded 200 000-state birth-death chain built straight into CSR and
   solved cold under a forced BiCGStab: the steady state must verify to a
   relative residual <= 1e-9 with no dense matrix materialized anywhere
   on the path, and agree with an independent banded GTH solve (O(n) at
   bandwidth 1) on per-decile probability masses. *)
let test_large_birth_death () =
  let n = 200_000 in
  let r = Sharpe_check.Srng.make 2002 in
  let up = Array.init (n - 1) (fun _ -> Sharpe_check.Srng.range r 0.5 2.0) in
  (* correlated down rates keep the stationary vector's dynamic range —
     and with it the system's condition number — bounded (see
     Gen.birth_death_q); the per-level jitter shrinks as 1/sqrt(n) so
     the log-pi random walk spans ~1 order of magnitude at any size and
     a 1e-18 Krylov residual stays a ~1e-9 solution error *)
  let jitter = 1.0 /. sqrt (float_of_int n) in
  let down =
    Array.map
      (fun u -> u *. Float.exp (Sharpe_check.Srng.range r (-.jitter) jitter))
      up
  in
  let q =
    Sparse.of_rows ~rows:n ~cols:n (fun i emit ->
        let es = if i < n - 1 then [ (i + 1, up.(i)) ] else [] in
        let es = if i > 0 then (i - 1, down.(i - 1)) :: es else es in
        let exit = List.fold_left (fun a (_, v) -> a +. v) 0.0 es in
        emit i (-.exit);
        List.iter (fun (j, v) -> emit j v) es)
  in
  let dense0 = Linsolve.dense_count () in
  let solve m = Linsolve.with_method m (fun () -> Linsolve.ctmc_steady_state q) in
  let pi, _ = Diag.capture (fun () -> solve Linsolve.Bicgstab) in
  Alcotest.(check int) "no dense materialization" dense0 (Linsolve.dense_count ());
  (* independent residual check: ||pi Q||_inf relative to ||Q||_inf *)
  let rmax =
    Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0.0 (Sparse.vec_mat pi q)
  in
  let qnorm = ref 0.0 in
  for i = 0 to n - 1 do
    qnorm := Float.max !qnorm (Sparse.fold_row q i (fun a _ v -> a +. Float.abs v) 0.0)
  done;
  let residual = rmax /. !qnorm in
  if not (residual <= 1e-9) then
    Alcotest.failf "relative residual %.3g above 1e-9" residual;
  let gth, _ = Diag.capture (fun () -> solve Linsolve.Gth) in
  let deciles v =
    let d = Array.make 10 0.0 in
    Array.iteri (fun i x -> d.(i * 10 / n) <- d.(i * 10 / n) +. x) v;
    d
  in
  let da = deciles pi and db = deciles gth in
  (* a birth-death chain's steady-state system has condition ~ n^2
     (diffusion spectrum), so a machine-epsilon residual still leaves a
     solution error well above it against the componentwise-exact GTH
     elimination; 1e-5 leaves headroom above that floor and stays orders
     below any genuine solver break *)
  let worst = ref 0.0 in
  Array.iteri (fun d a -> worst := Float.max !worst (Float.abs (a -. db.(d)))) da;
  if not (!worst <= 1e-5) then
    Alcotest.failf "BiCGStab and banded GTH decile masses differ by %.3g" !worst

(* The ring-with-two-chords SRN of perfbench's [large] workload at
   N = 20 tokens (C(23, 3) = 1 771 markings), ring rates 1 and chords
   0.1, each rate times its input place's marking.  Its replaced-row
   system has b = e_{n-1}.  With that b as the first shadow residual the
   recursion diverged from its best iterate at iteration 19 and rewound
   (39 iterations, 1 restart); with the all-ones shadow it runs through
   in 21. *)
let test_ring_no_restart () =
  let module Net = Sharpe_petri.Net in
  let module Reach = Sharpe_petri.Reach in
  let one _ = 1 in
  let arc (name, src, dst, rate) =
    { Net.t_name = name; kind = Net.Timed; rate = (fun m -> float_of_int m.(src) *. rate);
      guard = (fun _ -> true); priority = 0; inputs = [ (src, one) ];
      outputs = [ (dst, one) ]; inhibitors = [] }
  in
  let net =
    Net.build
      ~places:(List.init 4 (fun i -> (Printf.sprintf "p%d" i, if i = 0 then 20 else 0)))
      ~transitions:
        (List.map arc
           [ ("t01", 0, 1, 1.0); ("t12", 1, 2, 1.0); ("t23", 2, 3, 1.0);
             ("t30", 3, 0, 1.0); ("t02", 0, 2, 0.1); ("t13", 1, 3, 0.1) ])
  in
  let q = Sharpe_markov.Ctmc.generator (Reach.ctmc (Reach.build net)) in
  Alcotest.(check int) "markings" 1771 (Sparse.rows q);
  let a, b = Linsolve.ctmc_krylov_system q in
  let precond = Option.get (Krylov.ilu0 a) in
  let _, st = Krylov.bicgstab ~tol:1e-12 ~precond a b in
  Alcotest.(check bool) "converged" true st.Krylov.converged;
  Alcotest.(check int) "restarts" 0 st.Krylov.restarts;
  if st.Krylov.iterations > 25 then
    Alcotest.failf "%d iterations, above 25" st.Krylov.iterations

let suite =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    [ prop_mat_vec;
      prop_vec_mat;
      prop_transpose_roundtrip;
      prop_of_rows;
      prop_scale_rows;
      prop_ilu0_tridiag_exact;
      prop_ilu0_valid;
      prop_bicgstab_separated;
      prop_gmres_separated;
      prop_krylov_steady ]
  @ [ Alcotest.test_case
        "200k-state birth-death: BiCGStab, no dense, matches GTH" `Quick
        test_large_birth_death;
      Alcotest.test_case "N = 20 ring SRN: BiCGStab(ILU(0)) without a restart" `Quick
        test_ring_no_restart ]
