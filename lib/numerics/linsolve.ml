exception Singular

(* Gaussian elimination with partial pivoting of the n x n matrix [a]
   against the n x m right-hand sides [b], both in place on their raw
   row-major storage; on return [b] holds the solution.  Row offsets are
   hoisted out of the inner loops.  Pivots and multipliers depend on [a]
   alone, so every column of [b] sees exactly the operations, in the same
   order, that a one-column solve applies to it.  Zero pivot-row entries
   are not skipped: [-0.0 -. f *. -0.0] is [+0.0] for positive [f], and a
   NaN [f] times zero is NaN, so skipping them would change bits. *)
let eliminate a b m =
  let n = Matrix.rows a in
  let ad = Matrix.raw a in
  for k = 0 to n - 1 do
    (* partial pivoting *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs ad.((i * n) + k) > Float.abs ad.((!piv * n) + k) then piv := i
    done;
    let rk = k * n and bk = k * m in
    if !piv <> k then begin
      let rp = !piv * n and bp = !piv * m in
      for j = 0 to n - 1 do
        let t = ad.(rk + j) in
        ad.(rk + j) <- ad.(rp + j);
        ad.(rp + j) <- t
      done;
      for c = 0 to m - 1 do
        let t = b.(bk + c) in
        b.(bk + c) <- b.(bp + c);
        b.(bp + c) <- t
      done
    end;
    let akk = ad.(rk + k) in
    if Float.abs akk < 1e-300 then raise Singular;
    for i = k + 1 to n - 1 do
      let ri = i * n in
      let f = ad.(ri + k) /. akk in
      if f <> 0.0 then begin
        ad.(ri + k) <- 0.0;
        for j = k + 1 to n - 1 do
          ad.(ri + j) <- ad.(ri + j) -. (f *. ad.(rk + j))
        done;
        let bi = i * m in
        for c = 0 to m - 1 do
          b.(bi + c) <- b.(bi + c) -. (f *. b.(bk + c))
        done
      end
    done
  done;
  (* back substitution, row i of [b] becoming row i of the solution *)
  for i = n - 1 downto 0 do
    let ri = i * n and bi = i * m in
    for j = i + 1 to n - 1 do
      let aij = ad.(ri + j) and bj = j * m in
      for c = 0 to m - 1 do
        b.(bi + c) <- b.(bi + c) -. (aij *. b.(bj + c))
      done
    done;
    let aii = ad.(ri + i) in
    for c = 0 to m - 1 do
      b.(bi + c) <- b.(bi + c) /. aii
    done
  done

let check_shape a n =
  if Matrix.rows a <> n || Matrix.cols a <> n then invalid_arg "Linsolve.gauss: shape"

let gauss a b =
  check_shape a (Array.length b);
  eliminate a b 1;
  b

(* One elimination of [a] for all columns of [bm]; with no columns there
   is nothing to solve, and [a] is neither checked nor eliminated. *)
let gauss_matrix a bm =
  let m = Matrix.cols bm in
  if m > 0 then begin
    check_shape a (Matrix.rows bm);
    eliminate a (Matrix.raw bm) m
  end;
  bm

let inverse a = gauss_matrix a (Matrix.identity (Matrix.rows a))

(* Largest dense system the solver ladder escalates to; beyond this a
   failed iterative solve is reported as an error instead of silently
   blowing up memory/time on an O(n^3) elimination. *)
let direct_cap = 4096

(* --- solver selection -------------------------------------------------- *)

type method_ = Auto | Gauss_seidel | Sor | Bicgstab | Gmres | Gth | Direct

let method_ref = Atomic.make Auto
let set_method m = Atomic.set method_ref m
let current_method () = Atomic.get method_ref

let with_method m f =
  let old = current_method () in
  set_method m;
  Fun.protect ~finally:(fun () -> set_method old) f

(* Systems with at least this many unknowns try preconditioned Krylov
   before the stationary sweeps, whose spectral gap closes as
   diffusion-like state spaces grow. *)
let krylov_threshold = 20_000

(* Ticks on every expansion of a sparse system to a dense matrix.
   Large-model paths must keep it at zero — the bench asserts so — and an
   expansion beyond the direct-solve cap is loud: a bug, not a fallback. *)
let dense_count_ref = Atomic.make 0
let dense_count () = Atomic.get dense_count_ref

let note_dense ~solver n =
  Atomic.incr dense_count_ref;
  if n > direct_cap then
    Diag.emitf Diag.Warning ~solver
      "dense materialization of a %d-state sparse system (above the %d direct-solve cap)"
      n direct_cap

(* Negative steady-state entries below this magnitude are ordinary
   floating-point noise; above it the clamp is reported. *)
let clamp_warn = 1e-9

let inf_norm x = Array.fold_left (fun m v -> Float.max m (Float.abs v)) 0.0 x

let residual_inf a x b =
  let n = Array.length b in
  let worst = ref 0.0 in
  for i = 0 to n - 1 do
    let s = Sparse.fold_row a i (fun acc j v -> acc +. (v *. x.(j))) 0.0 in
    worst := Float.max !worst (Float.abs (s -. b.(i)))
  done;
  !worst

let sweep ~omega a b x =
  let n = Array.length b in
  let delta = ref 0.0 in
  for i = 0 to n - 1 do
    let diag = ref 0.0 and s = ref 0.0 in
    Sparse.iter_row a i (fun j v -> if j = i then diag := v else s := !s +. (v *. x.(j)));
    if !diag = 0.0 then raise Singular;
    let xi' = (b.(i) -. !s) /. !diag in
    let xi'' = x.(i) +. (omega *. (xi' -. x.(i))) in
    let d = Float.abs (xi'' -. x.(i)) /. Float.max 1.0 (Float.abs xi'') in
    (* NaN must propagate so divergence is detected, not mistaken for a stall *)
    if Float.is_nan d || d > !delta then delta := d;
    x.(i) <- xi''
  done;
  !delta

(* Young's optimal omega from the observed Gauss-Seidel contraction ratio
   (rho_GS = rho_Jacobi^2); oscillating or divergent sweeps under-relax. *)
let adaptive_omega rho =
  if Float.is_finite rho && rho > 0.0 && rho < 1.0 then
    Float.min 1.95 (2.0 /. (1.0 +. sqrt (1.0 -. rho)))
  else 0.5

(* The sweep loop: [step ()] sweeps once and returns the relative change,
   until it drops to [tol] or [max_iter] sweeps are spent.  Returns the
   last change, the sweep count and the observed contraction ratio (which
   picks SOR's omega).  A [linear] loop sweeps at least once and aborts on
   numeric blow-up. *)
let sweep_loop ~linear ~max_iter ~tol step =
  let k = ref 0 and delta = ref infinity and prev = ref nan and rho = ref nan in
  let go = ref (linear || max_iter > 0) in
  while !go do
    Deadline.check ();
    let d = step () in
    incr k;
    delta := d;
    let blown = linear && (Float.is_nan d || d > 1e100) in
    if not blown then begin
      if !prev > 0.0 then begin
        let r = d /. !prev in
        rho := if Float.is_nan !rho then r else 0.5 *. (!rho +. r)
      end;
      prev := d
    end;
    go := (not blown) && d > tol && !k < max_iter
  done;
  (!delta, !k, !rho)

(* Row equilibration to unit inf-norm rows.  Generator rows span the full
   rate range; without it the ILU pivots inherit that spread and the
   fastest states dominate the Krylov stopping test.  [D A x = D b] has
   the solution of [A x = b], which callers verify as before. *)
let equilibrate a b =
  let n = Sparse.rows a in
  let d = Array.make n 1.0 in
  for i = 0 to n - 1 do
    let m = Sparse.fold_row a i (fun acc _ v -> Float.max acc (Float.abs v)) 0.0 in
    if m > 0.0 && m <> 1.0 then d.(i) <- 1.0 /. m
  done;
  (Sparse.scale_rows d a, Array.mapi (fun i v -> d.(i) *. v) b)

(* One Krylov solve with iterative refinement: on ill-conditioned systems
   the iteration stagnates a few digits short of [tol]; re-solving against
   the residual and adding the correction compounds the digits gained. *)
let krylov_refined variant ~tol a b p =
  let n = Array.length b in
  let run rhs =
    match variant with
    | `Bicgstab -> Krylov.bicgstab ~tol ~precond:p a rhs
    | `Gmres -> Krylov.gmres ~tol ~precond:p a rhs
  in
  let nrm2 v = sqrt (Array.fold_left (fun acc c -> acc +. (c *. c)) 0.0 v) in
  let bnorm = Float.max (nrm2 b) 1e-300 in
  let x, st0 = run b in
  let iters = ref st0.Krylov.iterations and restarts = ref st0.Krylov.restarts in
  let scratch = Array.make n 0.0 in
  let residual () =
    Sparse.par_mat_vec_into a x scratch;
    for i = 0 to n - 1 do
      scratch.(i) <- b.(i) -. scratch.(i)
    done
  in
  (* at most two passes; stop when converged, or when a pass stops
     paying for itself *)
  let rec refine rounds res =
    if rounds = 2 then res
    else begin
      residual ();
      let d, std = run scratch in
      for i = 0 to n - 1 do
        x.(i) <- x.(i) +. d.(i)
      done;
      iters := !iters + std.Krylov.iterations;
      restarts := !restarts + std.Krylov.restarts;
      residual ();
      let r = nrm2 scratch /. bnorm in
      if r <= tol || r >= 0.5 *. res then r else refine (rounds + 1) r
    end
  in
  let res = if st0.Krylov.converged then st0.Krylov.residual else refine 0 st0.Krylov.residual in
  (x, { Krylov.iterations = !iters; restarts = !restarts; residual = res; converged = res <= tol })

let krylov_run variant ~tol a b =
  let a, b = equilibrate a b in
  let variant_name = match variant with `Bicgstab -> "bicgstab" | `Gmres -> "gmres" in
  (* Preconditioners, best first: ILU(0) when it factors, Jacobi when the
     diagonal is nonzero, identity.  ILU(0) far from elimination-closed
     patterns can do worse than either (BiCGStab's recursion is the
     fragile one): on failure retry down the list, keep the best solve. *)
  let preconds =
    Option.to_list (Krylov.ilu0 a) @ Option.to_list (Krylov.jacobi a) @ [ Krylov.identity ]
  in
  let rec go iters restarts best = function
    | [] ->
        let x, st, p = Option.get best in
        (x, { st with Krylov.iterations = iters; restarts },
         variant_name ^ "(" ^ p.Krylov.p_name ^ ")")
    | p :: rest ->
        let x, st = krylov_refined variant ~tol a b p in
        let best =
          match best with
          | Some (_, st0, _) when st0.Krylov.residual <= st.Krylov.residual -> best
          | _ -> Some (x, st, p)
        in
        go (iters + st.Krylov.iterations) (restarts + st.Krylov.restarts) best
          (if st.Krylov.converged then [] else rest)
  in
  go 0 0 None preconds

let uniform n = Array.make n (1.0 /. float_of_int n)

let normalize_l1 x =
  let s = Array.fold_left ( +. ) 0.0 x in
  if s <> 0.0 then Array.iteri (fun i v -> x.(i) <- v /. s) x

(* Clamp tiny negative probabilities, reporting clamped mass above noise
   level, then renormalize. *)
let clamp_normalize ~solver x =
  let worst = ref 0.0 in
  Array.iteri (fun i v -> if v < 0.0 then (worst := Float.max !worst (-.v); x.(i) <- 0.0)) x;
  if !worst > clamp_warn then
    Diag.emitf Diag.Warning ~solver ~residual:!worst
      "clamped negative probability entries (largest magnitude %.3g)" !worst;
  normalize_l1 x;
  x

let dtmc_residual p x =
  let y = Sparse.vec_mat x p in
  let worst = ref 0.0 in
  Array.iteri (fun i v -> worst := Float.max !worst (Float.abs (v -. x.(i)))) y;
  !worst

let ctmc_residual q x = inf_norm (Sparse.vec_mat x q)

(* Normalized power iteration from the uniform vector.  Returns the last
   two iterates, the step count, the last change, and whether a period-2
   limit cycle (a periodic chain) was entered.  It iterates on the
   transpose: [mat_vec pT x] adds the terms of [vec_mat x p] in the same
   order, so the result is the same, and the row-parallel kernel applies. *)
let dtmc_power ~max_iter ~tol p =
  let n = Sparse.rows p in
  let pt = Sparse.transpose p in
  let x = ref (uniform n) in
  let xprev = ref (Array.copy !x) in
  let k = ref 0 and delta = ref infinity and oscillating = ref false in
  while !delta > tol && !k < max_iter && not !oscillating do
    Deadline.check ();
    let x' = Sparse.par_mat_vec pt !x in
    normalize_l1 x';
    let d = ref 0.0 and d2 = ref 0.0 in
    Array.iteri
      (fun i v ->
        d := Float.max !d (Float.abs (v -. !x.(i)));
        d2 := Float.max !d2 (Float.abs (v -. !xprev.(i))))
      x';
    delta := !d;
    (* x_{k+1} ~ x_{k-1} while x_{k+1} <> x_k: a period-2 limit cycle *)
    if !k > 2 && !d2 <= tol && !d > tol then oscillating := true;
    xprev := !x;
    x := x';
    incr k
  done;
  (!x, !xprev, !k, !delta, !oscillating)

(* P - I, the generator-shaped form of a stochastic matrix *)
let minus_identity p =
  let n = Sparse.rows p in
  Sparse.of_rows ~nnz:(Sparse.nnz p + n) ~rows:n ~cols:n (fun i emit ->
      emit i (-1.0);
      Sparse.iter_row p i emit)

(* Q^T pi = 0 with the last equation replaced by sum pi = 1, by dense
   elimination; a DTMC passes P - I. *)
let replaced_row_direct ~solver q =
  let n = Sparse.rows q in
  note_dense ~solver n;
  let a = Matrix.create ~rows:n ~cols:n in
  Sparse.iter q (fun i j v -> Matrix.set a j i v);
  for j = 0 to n - 1 do
    Matrix.set a (n - 1) j 1.0
  done;
  let b = Array.make n 0.0 in
  b.(n - 1) <- 1.0;
  eliminate a b 1;
  b

let steady_state_direct q = replaced_row_direct ~solver:"ctmc_steady_state" q

(* Gauss-Seidel / SOR sweeps on Q^T x = 0 with per-sweep normalization,
   on [x] in place: the thesis' steady-state method; converges orders of
   magnitude faster than power iteration on stiff chains.  Returns the
   final relative change, the sweep count, and the observed contraction
   ratio. *)
let ctmc_sweeps ~omega ~max_iter ~tol qt x =
  let n = Array.length x in
  sweep_loop ~linear:false ~max_iter ~tol (fun () ->
      let d = ref 0.0 in
      for i = 0 to n - 1 do
        let diag = ref 0.0 and s = ref 0.0 in
        Sparse.iter_row qt i (fun j v -> if j = i then diag := v else s := !s +. (v *. x.(j)));
        if !diag <> 0.0 then begin
          let xi' = -. !s /. !diag in
          let xi'' = x.(i) +. (omega *. (xi' -. x.(i))) in
          (* entries below 1e-60 cannot influence any measure; their
             floating-point twitching must not keep a sweep going forever *)
          let change = Float.abs (xi'' -. x.(i)) /. Float.max 1e-60 (Float.abs xi'') in
          if change > !d then d := change;
          x.(i) <- xi''
        end
      done;
      normalize_l1 x;
      !d)

(* Half-bandwidth of the sparsity pattern: max |i - j| over stored entries. *)
let bandwidth q =
  let b = ref 0 in
  Sparse.iter q (fun i j _ -> b := max !b (abs (i - j)));
  !b

(* Grassmann-Taksar-Heyman state elimination on band storage.  With every
   transition inside |i - j| <= bw, eliminating states in decreasing
   index order keeps all fill inside the band: O(n * bw) memory, and at
   most O(n * bw^2) work, since each pivot's update runs over its row's
   positive entries only.  Subtraction-free, so the stationary vector stays componentwise
   accurate on stiff or nearly-decomposable chains where sweeps stall.
   [None] when some state has no transition to a lower-indexed survivor. *)
let ctmc_gth_banded q bw =
  let n = Sparse.rows q in
  let w = (2 * bw) + 1 in
  let band = Array.make_matrix n w 0.0 in
  Sparse.iter q (fun i j v -> if i <> j then band.(i).(j - i + bw) <- v);
  let s = Array.make n 0.0 in
  (* the pivot row's positive entries left of its diagonal, ascending:
     eliminating state kk writes neither row kk nor column kk, so this
     list is the set of [j] the update touches, read once per pivot *)
  let cols = Array.make bw 0 and vals = Array.make bw 0.0 in
  let ok = ref true and k = ref (n - 1) in
  while !ok && !k >= 1 do
    let kk = !k in
    let lo = max 0 (kk - bw) in
    let rowk = band.(kk) in
    let sk = ref 0.0 and nz = ref 0 in
    for j = lo to kk - 1 do
      let qkj = rowk.(j - kk + bw) in
      sk := !sk +. qkj;
      if qkj > 0.0 then begin
        cols.(!nz) <- j;
        vals.(!nz) <- qkj;
        incr nz
      end
    done;
    if !sk <= 0.0 then ok := false
    else begin
      s.(kk) <- !sk;
      for i = lo to kk - 1 do
        let rowi = band.(i) in
        let qik = rowi.(kk - i + bw) in
        if qik > 0.0 then begin
          let f = qik /. !sk and off = bw - i in
          (* j = i writes only the diagonal slot (i, i), which nothing
             reads: the sums and the forward pass read off-diagonal
             slots only *)
          for t = 0 to !nz - 1 do
            let j = cols.(t) + off in
            rowi.(j) <- rowi.(j) +. (f *. vals.(t))
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

(* A = (Q^T with its last row replaced by ones), b = e_{n-1}: the exact
   system [replaced_row_direct] eliminates, kept in CSR so the Krylov
   tier never touches a dense matrix.  Built by raw-array splicing: rows
   0..n-2 of Q^T are blitted, the last row becomes n explicit ones. *)
let ctmc_krylov_system q =
  let n = Sparse.rows q in
  let qt = Sparse.transpose q in
  let rp, ci, v = Sparse.raw qt in
  let keep = rp.(n - 1) in
  let nnz' = keep + n in
  let rp' = Array.make (n + 1) 0 in
  Array.blit rp 0 rp' 0 n;
  rp'.(n) <- nnz';
  let ci' = Array.make nnz' 0 and v' = Array.make nnz' 0.0 in
  Array.blit ci 0 ci' 0 keep;
  Array.blit v 0 v' 0 keep;
  for j = 0 to n - 1 do
    ci'.(keep + j) <- j;
    v'.(keep + j) <- 1.0
  done;
  let b = Array.make n 0.0 in
  b.(n - 1) <- 1.0;
  (Sparse.of_raw ~rows:n ~cols:n ~row_ptr:rp' ~col_idx:ci' ~values:v', b)

(* --- the solver ladder ------------------------------------------------- *)

(* Verify-then-escalate, as data.  An engine proposes a vector; [attempt]
   checks the true residual against the problem's verify tolerance,
   records the outcome, and accepts or hands the carry to the next rung.
   [Auto] is a size-directed engine list per problem; a forced method is
   a one-engine list whose failure is an error, not an escalation. *)

type problem = {
  n : int;
  nnz : int;
  solver : string;  (** solver field of the ladder's own records *)
  balance : string;  (** "" for a linear solve, else the balance equation *)
  residual : float array -> float;  (** relative true residual *)
  verify_tol : float;
  system : (Sparse.t * float array) Lazy.t;  (** what the Krylov rungs solve *)
  ktol : float;
  finish : float array -> float array;  (** applied to the answer *)
}

type carry = {
  mutable best : (float array * float) option;  (** best sweep iterate, residual *)
  mutable prev : float array option;  (** previous power iterate *)
  mutable from : string;  (** the rung that last gave up *)
}

type outcome =
  | Iterate of { label : string; x : float array; iters : int; converged : bool;
                 why : string;  (** the Non_convergence message *)
                 krylov : bool  (** recorded on success; never the carry's best *) }
  | Exact of float array  (** direct elimination: accepted as is *)
  | Checked of { x : float array option; note : Diag.severity * string }
      (** banded GTH or a Cesaro average: accepted with [note] when it
          verifies, passed over silently otherwise *)
  | Zero_diagonal

type engine = {
  name : string;
  applicable : unit -> bool;
  via : (carry -> string) option;  (** Fallback record when escalated to *)
  run : carry -> outcome;
}

let engine name run = { name; applicable = (fun () -> true); via = None; run }
let via msg e = { e with via = Some msg }
let steady p = p.balance <> ""
let no_budget = "no convergence within iteration budget"
let stalled p = "iterate stalled: post-solve residual verification" ^ p.balance ^ " failed"

(* Keep the better sweep iterate, the earlier on ties. *)
let keep c x r =
  c.best <-
    Some
      (match c.best with
       | Some (y, r0) -> ((if r < r0 then x else y), Float.min r0 r)
       | None -> (x, r))

let attempt p ~forced c e =
  let vt = p.verify_tol in
  let refuse ?(solver = p.solver) ?iterations ?residual what =
    Diag.emitf Diag.Error ~solver ?iterations ?residual
      ?tolerance:(Option.map (fun _ -> vt) residual)
      "%s (no fallback under --solver)" what
  in
  match e.run c with
  | Zero_diagonal ->
      if forced then (refuse ~solver:e.name "zero diagonal entry"; raise Singular);
      c.from <- e.name ^ " hit a zero diagonal";
      `Zero_diagonal
  | Exact x -> `Accept (p.finish x)
  | Iterate { label; x; iters; converged; why; krylov } ->
      let r = p.residual x in
      if not krylov then keep c x r;
      if converged && r <= vt then begin
        if krylov then
          Diag.emitf Diag.Info ~solver:label ~iterations:iters ~residual:r ~tolerance:vt
            "%s (n=%d, nnz=%d)"
            (if steady p then "krylov steady state" else "converged")
            p.n p.nnz;
        `Accept (p.finish x)
      end
      else begin
        if krylov || not forced then
          Diag.emit Diag.Non_convergence ~solver:label ~iterations:iters ~residual:r
            ~tolerance:vt why;
        c.from <- label;
        if not forced then `Next
        else if krylov && steady p then (
          refuse "forced krylov method did not produce a verified steady state";
          `Accept (uniform p.n))
        else (
          refuse ~solver:label ~residual:r ?iterations:(if steady p then Some iters else None)
            ("forced method did not produce a verified "
            ^ if steady p then "steady state" else "solution");
          `Accept (p.finish x))
      end
  | Checked { x = Some x; note = sev, msg } when p.residual x <= vt ->
      Diag.emit sev ~solver:p.solver msg;
      `Accept (p.finish x)
  | Checked _ when not forced -> `Next
  | Checked { x = Some x; _ } ->
      refuse ~residual:(p.residual x) "forced GTH elimination failed residual verification";
      `Accept (p.finish x)
  | Checked { x = None; _ } ->
      refuse "forced GTH elimination failed: no transition to a lower-indexed state";
      `Accept (uniform p.n)

let krylov_engine p variant =
  engine "krylov" (fun _ ->
      let a, b = Lazy.force p.system in
      let x, st, label = krylov_run variant ~tol:p.ktol a b in
      let converged = st.Krylov.converged in
      Iterate
        { label; x; iters = st.Krylov.iterations; converged; krylov = true;
          why = (if converged then stalled p else no_budget) })

(* Run the ladder of the current method.  Forced BiCGStab/GMRES, or a
   method [forcings] pairs with an engine, runs that engine alone; any
   other method runs the [Auto] list: [head], then the [stationary] rungs
   and [fallback] backed by BiCGStab below [krylov_threshold], or BiCGStab
   and GMRES backed by them at or above it, then [repair].  A zero
   diagonal jumps straight to [fallback]; a ladder that runs out returns
   the best sweep iterate, loudly (every [Auto] list holds a sweep rung). *)
let run p ~fallback ~backing ~stationary ?(head = []) ?(repair = []) forcings =
  let krylov = krylov_engine p in
  let auto =
    match stationary @ [ fallback ] with
    | first :: rest when p.n >= krylov_threshold ->
        krylov `Bicgstab :: krylov `Gmres
        :: via (fun _ -> "krylov failed: falling back to " ^ backing) first :: rest
    | sweeps ->
        sweeps @ [ via (fun _ -> "escalating to preconditioned BiCGStab") (krylov `Bicgstab) ]
  in
  let only =
    List.assoc_opt (current_method ())
      ((Bicgstab, krylov `Bicgstab) :: (Gmres, krylov `Gmres) :: forcings)
  in
  let forced = Option.is_some only and c = { best = None; prev = None; from = "" } in
  let rec go = function
    | [] ->
        let x, r = Option.get c.best in
        Diag.emitf Diag.Error ~solver:p.solver ~residual:r ~tolerance:p.verify_tol
          "%s of size %d exceeds the direct-solve cap (%d); returning %sunverified iterate"
          (if steady p then "chain" else "system") p.n direct_cap
          (if steady p then "" else "best ");
        p.finish x
    | e :: rest -> if e.applicable () then step e rest else go rest
  and step e rest =
    Option.iter (fun msg -> Diag.emit Diag.Fallback ~solver:p.solver (msg c)) e.via;
    match attempt p ~forced c e with
    | `Accept x -> x
    | `Next -> go rest
    | `Zero_diagonal -> step fallback []
  in
  go (match only with Some e -> [ e ] | None -> head @ auto @ repair)

(* Direct elimination: accepted as is, with a Warning when even it misses
   the verify tolerance; escalated to, it applies within the dense cap
   only. *)
let direct_engine p
    ?(warn = (p.solver, "direct steady-state residual above verification tolerance"))
    eliminate =
  engine "direct" (fun _ ->
      let x = eliminate () in
      let r = p.residual x in
      if r > p.verify_tol then
        Diag.emit Diag.Warning ~solver:(fst warn) ~residual:r ~tolerance:p.verify_tol (snd warn);
      Exact x)

let escalated p msg direct = { (via msg direct) with applicable = (fun () -> p.n <= direct_cap) }

(* The stationary rungs shared by [solve] and the CTMC: Gauss-Seidel and
   SOR.  [sw omega k x] runs at most [k] sweeps on [x] in place and
   returns its last relative change, the sweep count and the contraction
   ratio; [cold ()] is a fresh cold start.  SOR serves both [Auto], where
   it follows Gauss-Seidel, and a forced [Sor]: a short Gauss-Seidel
   probe picks omega; the over-relaxed run gets a bounded trial window
   and must beat the probe's step, or the rest of the budget runs at
   omega = 1 (Young's formula assumes a property-A ordering and can
   oscillate on a general sweep operator). *)
let sweep_engines p ~sw ~cold ~tol ~max_iter ~prefix =
  let swept name ~stall run =
    engine (prefix ^ name) (fun _ ->
        match run () with
        | exception Singular -> Zero_diagonal
        | x, d, k ->
            Iterate
              { label = prefix ^ name; x; iters = k; converged = d <= tol; krylov = false;
                why = (if d <= tol then stall else no_budget) })
  in
  let gs =
    swept "gauss_seidel" ~stall:(stalled p) (fun () ->
        let x = cold () in
        let d, k, _ = sw 1.0 max_iter x in
        (x, d, k))
  in
  let sor =
    swept "sor" ~stall:no_budget (fun () ->
        let probe = max 10 (min 100 (max_iter / 10)) in
        let x0 = cold () in
        let d0, _, rho = sw 1.0 probe x0 in
        let omega = adaptive_omega rho in
        let trial = max 50 (min 1_000 (max_iter / 20)) in
        let x1 = Array.copy x0 in
        let d1, k1, _ = sw omega trial x1 in
        if d1 <= tol then (x1, d1, probe + k1)
        else
          let omega, x = if d1 < d0 then (omega, x1) else (1.0, x0) in
          let d, k, _ = sw omega (max_iter - trial) x in
          (x, d, probe + trial + k))
  in
  (gs, sor)

(* --- the three problems ------------------------------------------------ *)

(* Robust Ax = b, verified against ||Ax - b||_inf / max(1, ||b||_inf). *)
let solve ?(max_iter = 100_000) a b =
  let tol = 1e-12 in
  let n = Array.length b in
  let scale = Float.max 1.0 (inf_norm b) in
  let p =
    { n; nnz = Sparse.nnz a; solver = "linsolve"; balance = "";
      residual = (fun x -> residual_inf a x b /. scale);
      verify_tol = Float.max (tol *. 1e4) 1e-8;
      system = Lazy.from_val (a, b); ktol = Float.min tol 1e-10; finish = Fun.id }
  in
  let gs, sor =
    sweep_engines p ~tol ~max_iter ~prefix:""
      ~cold:(fun () -> Array.make n 0.0)
      ~sw:(fun omega max_iter x ->
        sweep_loop ~linear:true ~max_iter ~tol (fun () -> sweep ~omega a b x))
  in
  let direct =
    direct_engine p
      ~warn:("gauss", "direct-solve residual above verification tolerance (ill-conditioned system)")
      (fun () ->
        note_dense ~solver:"linsolve" n;
        try gauss (Sparse.to_dense a) (Array.copy b)
        with Singular ->
          Diag.emit Diag.Error ~solver:"gauss"
            "direct fallback hit a singular pivot: system has no unique solution";
          raise Singular)
  in
  run p ~backing:"stationary sweeps" ~stationary:[ gs; via (fun _ -> "escalating to SOR") sor ]
    ~fallback:
      (escalated p (fun c -> c.from ^ ": falling back to direct Gaussian elimination") direct)
    [ (Gauss_seidel, gs); (Sor, sor); (Direct, direct) ]

(* The sweeps' and power iteration's stopping tolerance *)
let steady_tol = 1e-13

let steady_problem ~solver ~balance ~residual ~system m =
  { n = Sparse.rows m; nnz = Sparse.nnz m; solver; balance; residual;
    verify_tol = Float.max (steady_tol *. 1e4) 1e-9;
    system; ktol = Float.max 1e-12 (steady_tol *. 10.0); finish = clamp_normalize ~solver }

let ctmc_steady_state ?(max_iter = 200_000) ?(direct_threshold = 500) q =
  let n = Sparse.rows q in
  if n <= 1 then Array.make n 1.0
  else begin
    let solver = "ctmc_steady_state" in
    let qnorm = Float.max 1e-300 (2.0 *. inf_norm (Sparse.diag q)) in
    let p =
      steady_problem ~solver ~balance:" of pi Q" q
        ~residual:(fun x -> ctmc_residual q x /. qnorm)
        ~system:(lazy (ctmc_krylov_system q))
    in
    let qt = lazy (Sparse.transpose q) in
    let gs, sor =
      sweep_engines p ~tol:steady_tol ~max_iter ~prefix:"ctmc_"
        ~cold:(fun () -> uniform n)
        ~sw:(fun omega max_iter x ->
          ctmc_sweeps ~omega ~max_iter ~tol:steady_tol (Lazy.force qt) x)
    in
    let direct = direct_engine p (fun () -> steady_state_direct q) in
    (* banded GTH: [Auto] takes it when its O(n*bw^2) cost fits the direct
       budget (threshold^3); forced, it runs whatever the bandwidth *)
    let bw = lazy (bandwidth q) in
    let gth =
      engine "gth" (fun _ ->
          let bw = Lazy.force bw in
          let note = Printf.sprintf "banded GTH elimination (n=%d, bandwidth=%d)" n bw in
          Checked { x = (if bw > 0 then ctmc_gth_banded q bw else None); note = (Diag.Info, note) })
    in
    let fits_budget () =
      let bw = float_of_int (Lazy.force bw) in
      bw > 0.0 && float_of_int n *. bw *. bw <= float_of_int direct_threshold ** 3.0
    in
    run p ~backing:"stationary sweeps"
      ~stationary:[ gs; via (fun _ -> "escalating to SOR sweeps") sor ]
      ~fallback:
        (escalated p (fun c -> c.from ^ ": falling back to direct solve of pi Q = 0") direct)
      ~head:
        [ { direct with applicable = (fun () -> n <= direct_threshold) };
          { gth with applicable = fits_budget } ]
      [ (Gauss_seidel, gs); (Sor, sor); (Gth, gth); (Direct, direct) ]
  end

let dtmc_steady_state pm =
  let n = Sparse.rows pm in
  if n <= 1 then Array.make n 1.0
  else begin
    let solver = "dtmc_steady_state" in
    let p =
      steady_problem ~solver ~balance:" of pi P = pi" pm
        ~residual:(fun x -> dtmc_residual pm x /. Float.max 1.0 (inf_norm x))
        ~system:(lazy (ctmc_krylov_system (minus_identity pm)))
    in
    let direct = direct_engine p (fun () -> replaced_row_direct ~solver (minus_identity pm)) in
    let power =
      engine solver (fun c ->
          let x, xprev, k, delta, oscillating =
            dtmc_power ~max_iter:1_000_000 ~tol:steady_tol pm
          in
          c.prev <- Some xprev;
          let why =
            if oscillating then "power iteration entered a period-2 limit cycle (periodic chain)"
            else if delta <= steady_tol then "iterate stalled: post-solve residual verification failed"
            else no_budget
          in
          Iterate { label = solver; x; iters = k; converged = delta <= steady_tol; krylov = false; why })
    in
    (* the mean of two successive power iterates repairs a period-2 cycle *)
    let cesaro =
      engine "cesaro" (fun c ->
          let x, _ = Option.get c.best and xp = Option.get c.prev in
          Checked
            { x = Some (Array.init n (fun i -> 0.5 *. (x.(i) +. xp.(i))));
              note = (Diag.Warning, "accepted Cesaro-averaged iterate for a periodic chain") })
    in
    (* Power iteration is the only stationary method for a DTMC: forced
       Gauss-Seidel, SOR and GTH run the [Auto] list. *)
    run p ~backing:"power iteration" ~stationary:[ power ] ~repair:[ cesaro ]
      ~fallback:(escalated p (fun _ -> "escalating to direct solve of pi (P - I) = 0") direct)
      [ (Direct, direct) ]
  end
