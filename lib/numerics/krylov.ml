(* Preconditioned Krylov solvers on CSR — the large-model tier of the
   solver chain.

   Everything at 10^5-10^6 states runs through these kernels: the
   stationary methods (Gauss-Seidel / SOR sweeps) stall on
   diffusion-like state spaces whose spectral gap closes as the model
   grows, while BiCGStab and restarted GMRES only need mat-vec products
   and a cheap preconditioner, both O(nnz).

   Both solvers are RIGHT-preconditioned (they iterate on A M^-1 y = b,
   x = M^-1 y), so the residual they monitor is the TRUE residual
   b - A x, not a preconditioned surrogate — the post-solve verification
   in Linsolve sees the same quantity the stopping test used.

   Memory: BiCGStab keeps 7 work vectors; GMRES(m) keeps m+1 basis
   vectors (default m = 30), so BiCGStab is the first choice at 10^6
   states.  All inner products and updates run on flat float arrays via
   Sparse.par_mat_vec_into — row-parallel above the Sparse nnz floor,
   bit-identical to the serial kernel either way — with no per-iteration
   allocation beyond the small Hessenberg factors of GMRES. *)

type stats = { iterations : int; restarts : int; residual : float; converged : bool }

type precond = {
  p_name : string;
  p_apply : float array -> float array -> unit;
      (* p_apply src dst: dst <- M^-1 src; src and dst must not alias *)
}

let identity = { p_name = "none"; p_apply = (fun src dst -> Array.blit src 0 dst 0 (Array.length src)) }

let dot a b =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let norm2 a = sqrt (dot a a)

(* --- Jacobi ----------------------------------------------------------- *)

let jacobi a =
  let d = Sparse.diag a in
  if Array.exists (fun v -> v = 0.0) d then None
  else begin
    let inv = Array.map (fun v -> 1.0 /. v) d in
    Some
      { p_name = "jacobi";
        p_apply =
          (fun src dst ->
            for i = 0 to Array.length src - 1 do
              dst.(i) <- src.(i) *. inv.(i)
            done) }
  end

(* --- ILU(0) ----------------------------------------------------------- *)

(* Incomplete LU with zero fill-in (IKJ variant): the factors live on the
   sparsity pattern of A itself.  L is unit lower triangular (its strict
   lower entries stored in place of A's), U upper triangular including
   the diagonal.  For banded patterns that are closed under elimination
   (tridiagonal; tridiagonal plus a full last row, which is exactly the
   replaced-row steady-state system of a birth-death chain) ILU(0) IS the
   exact LU factorization, and the Krylov iteration converges in a
   handful of steps.

   Requires sorted, duplicate-free column indices per row (canonical CSR)
   and a structurally present nonzero diagonal; returns None on a zero
   or denormal pivot instead of producing a garbage preconditioner. *)
let ilu0 a =
  let n = Sparse.rows a in
  if n <> Sparse.cols a then invalid_arg "Krylov.ilu0: square matrix expected";
  let row_ptr, col_idx, values0 = Sparse.raw a in
  let lu = Array.copy values0 in
  (* position of the diagonal entry within each row *)
  let diag_idx = Array.make n (-1) in
  (try
     for i = 0 to n - 1 do
       for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
         if col_idx.(k) = i then diag_idx.(i) <- k
       done;
       if diag_idx.(i) < 0 then raise Exit
     done
   with Exit -> ());
  if Array.exists (fun k -> k < 0) diag_idx then None
  else begin
    (* scatter array: pos.(j) = index of column j in the current row *)
    let pos = Array.make n (-1) in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n do
      if !i land 4095 = 0 then Deadline.check ();
      let ii = !i in
      let rs = row_ptr.(ii) and re = row_ptr.(ii + 1) - 1 in
      for k = rs to re do
        pos.(col_idx.(k)) <- k
      done;
      (* eliminate using already-factored rows k < i, in increasing
         column order (CSR rows are sorted, so this is a plain scan) *)
      let k = ref rs in
      while !ok && !k < diag_idx.(ii) do
        let col = col_idx.(!k) in
        let pivot = lu.(diag_idx.(col)) in
        if Float.abs pivot < 1e-300 then ok := false
        else begin
          let f = lu.(!k) /. pivot in
          lu.(!k) <- f;
          for m = diag_idx.(col) + 1 to row_ptr.(col + 1) - 1 do
            let p = pos.(col_idx.(m)) in
            if p >= 0 then lu.(p) <- lu.(p) -. (f *. lu.(m))
          done
        end;
        incr k
      done;
      if !ok && Float.abs lu.(diag_idx.(ii)) < 1e-300 then ok := false;
      for k = rs to re do
        pos.(col_idx.(k)) <- -1
      done;
      incr i
    done;
    if not !ok then None
    else
      Some
        { p_name = "ilu0";
          p_apply =
            (fun src dst ->
              (* forward solve L y = src (unit diagonal) *)
              for i = 0 to n - 1 do
                let s = ref src.(i) in
                for k = row_ptr.(i) to diag_idx.(i) - 1 do
                  s := !s -. (lu.(k) *. dst.(col_idx.(k)))
                done;
                dst.(i) <- !s
              done;
              (* backward solve U x = y *)
              for i = n - 1 downto 0 do
                let s = ref dst.(i) in
                for k = diag_idx.(i) + 1 to row_ptr.(i + 1) - 1 do
                  s := !s -. (lu.(k) *. dst.(col_idx.(k)))
                done;
                dst.(i) <- !s /. lu.(diag_idx.(i))
              done) }
  end

(* --- BiCGStab --------------------------------------------------------- *)

let bicgstab ?(tol = 1e-12) ?(precond = identity) a b =
  let max_iter = 2000 in
  let n = Array.length b in
  if Sparse.rows a <> n || Sparse.cols a <> n then
    invalid_arg "Krylov.bicgstab: shape";
  let x = Array.make n 0.0 in
  let r = Array.copy b in (* r = b - A*0 *)
  (* The first shadow residual is the all-ones vector, not r0 = b.  The
     steady-state systems Linsolve builds have b = e_{n-1} (the
     normalisation row), so rhat = b biorthogonalises the first recursion
     against a single coordinate: on the 39 711-state SRN chain of
     perfbench's [large] workload every solve then diverged from its best
     iterate and rewound, at twice the iterations.  Ones weighs every
     equation; if ones . r0 = 0 the rho1 test below restarts with
     rhat = r. *)
  let rhat = Array.make n 1.0 in
  let p = Array.make n 0.0 and v = Array.make n 0.0 in
  let s = Array.make n 0.0 and t = Array.make n 0.0 in
  let phat = Array.make n 0.0 and shat = Array.make n 0.0 in
  let bnorm = Float.max (norm2 b) 1e-300 in
  let rho = ref 1.0 and alpha = ref 1.0 and omega = ref 1.0 in
  let iter = ref 0 in
  let rnorm = ref (norm2 r) in
  let broke = ref false in
  (* Breakdown of the recursion (rho, rhat . v or t . t collapsing) does
     not mean failure: restart the recursion with the residual as its
     shadow, rhat = r, and keep iterating.  A restart that brings no
     progress over the previous one would replay it -- from the same best
     iterate rhat = r is the same vector -- so the solver gives up
     instead, as on a singular system whose operator maps the search
     direction to zero. *)
  let last_break = ref infinity and restarts = ref 0 in
  let breakdown () =
    if !rnorm >= 0.99 *. !last_break then broke := true
    else begin
      incr restarts;
      last_break := !rnorm;
      Array.blit r 0 rhat 0 n;
      Array.fill p 0 n 0.0;
      Array.fill v 0 n 0.0;
      rho := 1.0;
      alpha := 1.0;
      omega := 1.0
    end
  in
  (* best-iterate safeguard: BiCGStab residuals are erratic and can blow
     up outright; remember the best iterate, and on divergence rewind to
     it and restart the recursion (the stagnation guard in [breakdown]
     bounds how often).  A recursion whose best residual has not improved
     in n iterations is rewound too: in exact arithmetic BiCG ends within
     n steps, so by then rounding has spent its biorthogonality (omega
     and alpha shrink together and the residual creeps), and without the
     rewind it would creep to [max_iter]. *)
  let xbest = Array.copy x in
  let best = ref !rnorm and best_iter = ref 0 in
  while (not !broke) && !rnorm /. bnorm > tol && !iter < max_iter do
    Deadline.check ();
    if !rnorm < !best then begin
      best := !rnorm;
      best_iter := !iter;
      Array.blit x 0 xbest 0 n
    end
    else if
      Float.is_nan !rnorm || !rnorm > 100.0 *. !best || !iter - !best_iter >= n
    then begin
      best_iter := !iter;
      Array.blit xbest 0 x 0 n;
      Sparse.par_mat_vec_into a x t;
      for i = 0 to n - 1 do
        r.(i) <- b.(i) -. t.(i)
      done;
      rnorm := norm2 r;
      breakdown ()
    end;
    incr iter;
    let rho1 = dot rhat r in
    if Float.abs rho1 < 1e-300 *. bnorm || !omega = 0.0 then breakdown ()
    else begin
      let beta = rho1 /. !rho *. (!alpha /. !omega) in
      for i = 0 to n - 1 do
        p.(i) <- r.(i) +. (beta *. (p.(i) -. (!omega *. v.(i))))
      done;
      precond.p_apply p phat;
      Sparse.par_mat_vec_into a phat v;
      let denom = dot rhat v in
      if Float.abs denom < 1e-300 then breakdown ()
      else begin
        alpha := rho1 /. denom;
        for i = 0 to n - 1 do
          s.(i) <- r.(i) -. (!alpha *. v.(i))
        done;
        if norm2 s /. bnorm <= tol then begin
          for i = 0 to n - 1 do
            x.(i) <- x.(i) +. (!alpha *. phat.(i))
          done;
          Array.blit s 0 r 0 n;
          rnorm := norm2 r
        end
        else begin
          precond.p_apply s shat;
          Sparse.par_mat_vec_into a shat t;
          let tt = dot t t in
          if tt = 0.0 then breakdown ()
          else begin
            omega := dot t s /. tt;
            for i = 0 to n - 1 do
              x.(i) <- x.(i) +. (!alpha *. phat.(i)) +. (!omega *. shat.(i))
            done;
            for i = 0 to n - 1 do
              r.(i) <- s.(i) -. (!omega *. t.(i))
            done;
            rho := rho1;
            rnorm := norm2 r
          end
        end
      end
    end
  done;
  if !rnorm > !best then Array.blit xbest 0 x 0 n;
  (* the recursive residual drifts from b - A x (and a breakdown can stop
     the recursion with an already-converged iterate): score convergence
     on the true residual *)
  Sparse.par_mat_vec_into a x t;
  let tr = ref 0.0 in
  for i = 0 to n - 1 do
    let d = b.(i) -. t.(i) in
    tr := !tr +. (d *. d)
  done;
  let residual = sqrt !tr /. bnorm in
  (x, { iterations = !iter; restarts = !restarts; residual; converged = residual <= tol })

(* --- restarted GMRES -------------------------------------------------- *)

let gmres ?(tol = 1e-12) ?(precond = identity) a b =
  let max_iter = 2000 in
  let n = Array.length b in
  if Sparse.rows a <> n || Sparse.cols a <> n then invalid_arg "Krylov.gmres: shape";
  let m = max 1 (min 30 n) in
  let x = Array.make n 0.0 in
  let bnorm = Float.max (norm2 b) 1e-300 in
  let basis = Array.init (m + 1) (fun _ -> Array.make n 0.0) in
  let h = Array.make_matrix (m + 1) m 0.0 in
  let cs = Array.make m 0.0 and sn = Array.make m 0.0 in
  let g = Array.make (m + 1) 0.0 in
  let w = Array.make n 0.0 and z = Array.make n 0.0 in
  let r = Array.make n 0.0 in
  let total = ref 0 and cycles = ref 0 in
  let resid = ref infinity in
  let finished = ref false in
  while not !finished do
    Deadline.check ();
    (* r = b - A x *)
    Sparse.par_mat_vec_into a x r;
    for i = 0 to n - 1 do
      r.(i) <- b.(i) -. r.(i)
    done;
    let beta = norm2 r in
    resid := beta /. bnorm;
    if !resid <= tol || !total >= max_iter then finished := true
    else begin
      incr cycles;
      let v0 = basis.(0) in
      for i = 0 to n - 1 do
        v0.(i) <- r.(i) /. beta
      done;
      Array.fill g 0 (m + 1) 0.0;
      g.(0) <- beta;
      let j = ref 0 in
      let inner_done = ref false in
      while not !inner_done do
        Deadline.check ();
        let jj = !j in
        incr total;
        (* w = A M^-1 v_j *)
        precond.p_apply basis.(jj) z;
        Sparse.par_mat_vec_into a z w;
        (* modified Gram-Schmidt *)
        for i = 0 to jj do
          let hij = dot w basis.(i) in
          h.(i).(jj) <- hij;
          let vi = basis.(i) in
          for k = 0 to n - 1 do
            w.(k) <- w.(k) -. (hij *. vi.(k))
          done
        done;
        let hj1 = norm2 w in
        h.(jj + 1).(jj) <- hj1;
        if hj1 > 0.0 then begin
          let vnext = basis.(jj + 1) in
          for k = 0 to n - 1 do
            vnext.(k) <- w.(k) /. hj1
          done
        end;
        (* apply accumulated Givens rotations to the new column *)
        for i = 0 to jj - 1 do
          let t1 = (cs.(i) *. h.(i).(jj)) +. (sn.(i) *. h.(i + 1).(jj)) in
          let t2 = (-.sn.(i) *. h.(i).(jj)) +. (cs.(i) *. h.(i + 1).(jj)) in
          h.(i).(jj) <- t1;
          h.(i + 1).(jj) <- t2
        done;
        let denom = Float.hypot h.(jj).(jj) h.(jj + 1).(jj) in
        if denom = 0.0 then begin
          cs.(jj) <- 1.0;
          sn.(jj) <- 0.0
        end
        else begin
          cs.(jj) <- h.(jj).(jj) /. denom;
          sn.(jj) <- h.(jj + 1).(jj) /. denom
        end;
        h.(jj).(jj) <- (cs.(jj) *. h.(jj).(jj)) +. (sn.(jj) *. h.(jj + 1).(jj));
        h.(jj + 1).(jj) <- 0.0;
        g.(jj + 1) <- -.sn.(jj) *. g.(jj);
        g.(jj) <- cs.(jj) *. g.(jj);
        resid := Float.abs g.(jj + 1) /. bnorm;
        if
          !resid <= tol || jj + 1 >= m || !total >= max_iter
          || hj1 = 0.0 (* lucky breakdown: exact solution in the space *)
        then inner_done := true
        else incr j
      done;
      (* back-substitute H y = g over the jj+1 columns built *)
      let cols_built = !j + 1 in
      let y = Array.make cols_built 0.0 in
      for i = cols_built - 1 downto 0 do
        let s = ref g.(i) in
        for k = i + 1 to cols_built - 1 do
          s := !s -. (h.(i).(k) *. y.(k))
        done;
        y.(i) <- (if h.(i).(i) = 0.0 then 0.0 else !s /. h.(i).(i))
      done;
      (* x += M^-1 (V y): the preconditioner is linear, so applying it to
         the combined correction saves keeping m preconditioned vectors *)
      Array.fill w 0 n 0.0;
      for i = 0 to cols_built - 1 do
        let vi = basis.(i) and yi = y.(i) in
        if yi <> 0.0 then
          for k = 0 to n - 1 do
            w.(k) <- w.(k) +. (yi *. vi.(k))
          done
      done;
      precond.p_apply w z;
      for k = 0 to n - 1 do
        x.(k) <- x.(k) +. z.(k)
      done
    end
  done;
  (x,
   { iterations = !total; restarts = max 0 (!cycles - 1); residual = !resid;
     converged = !resid <= tol })
