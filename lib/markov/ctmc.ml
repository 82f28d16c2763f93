open Sharpe_numerics

type t = {
  n : int;
  q : Sparse.t; (* full generator, diagonal included *)
  exit : float array; (* exit.(i) = sum of off-diagonal rates out of i *)
  mutable unif : unif option;
      (* memoized uniformization: the generator is immutable, so the
         factorization never changes for a given chain *)
}

(* Only the transpose of P is built: the transient/cumulative inner
   loops iterate v <- v P as the bit-identical mat-vec P^T v, whose row
   partition parallelizes (the vec-mat scatter form cannot be split
   without changing the reduction order). *)
and unif = {
  lambda : float;
  pt : Sparse.t; (* P^T for P = I + Q/lambda *)
  reach : int array;
      (* [Sparse.prefix_reach pt]: P^T v is zero from row reach.(h) on
         when v is zero from row h on *)
}

let make_error msg =
  Diag.emit Diag.Error ~solver:"ctmc" msg;
  invalid_arg ("Ctmc.make: " ^ msg)

(* Checks one off-diagonal rate and tells whether it is an entry: the
   constructors add [r] and accumulate [exit.(i)] in call order, so each
   one's summation order is its input order. *)
let is_rate i j r =
  if i = j then make_error "self loop";
  if not (Float.is_finite r) then make_error "non-finite rate";
  if r < 0.0 then make_error "negative rate";
  r > 0.0

let make ~n rates =
  let b = Sparse.builder ~rows:n ~cols:n in
  let exit = Array.make n 0.0 in
  List.iter
    (fun (i, j, r) ->
      if is_rate i j r then begin
        Sparse.add b i j r;
        exit.(i) <- exit.(i) +. r
      end)
    rates;
  Array.iteri (fun i e -> if e > 0.0 then Sparse.add b i i (-.e)) exit;
  { n; q = Sparse.finalize b; exit; unif = None }

let of_rows ?nnz ~n row =
  let exit = Array.make n 0.0 in
  let q =
    Sparse.of_rows ?nnz ~rows:n ~cols:n (fun i emit ->
        row i (fun j r ->
            if is_rate i j r then begin
              emit j r;
              exit.(i) <- exit.(i) +. r
            end);
        if exit.(i) > 0.0 then emit i (-.exit.(i)))
  in
  { n; q; exit; unif = None }

(* Adopt a CSR generator built elsewhere (e.g. by the PEPA front end's
   compositional derivation): exit rates are recovered from the
   off-diagonal row sums in O(nnz), no dense intermediate. *)
let of_generator q =
  let rows = Sparse.rows q and cols = Sparse.cols q in
  if rows <> cols then make_error "generator must be square";
  let exit = Array.make rows 0.0 in
  Sparse.iter q (fun i j v ->
      if i <> j then begin
        if not (Float.is_finite v) then make_error "non-finite rate";
        if v < 0.0 then make_error "negative off-diagonal rate";
        exit.(i) <- exit.(i) +. v
      end);
  { n = rows; q; exit; unif = None }

(* Well-formedness checks that produce diagnostics instead of aborting:
   the model may still be analyzable (absorption measures on a reducible
   chain are fine), but the analyst should know. *)
let validate ?init ?names c =
  let name i =
    match names with Some f -> f i | None -> Printf.sprintf "state %d" i
  in
  if c.n > 0 && Array.for_all (fun e -> e = 0.0) c.exit then
    Diag.emit Diag.Warning ~solver:"ctmc"
      "all states are absorbing: the chain never leaves its initial state";
  let rmax = ref 0.0 in
  Sparse.iter c.q (fun i j v -> if i <> j && v > !rmax then rmax := v);
  if !rmax > 1e12 then
    Diag.emitf Diag.Warning ~solver:"ctmc" ~residual:!rmax
      "largest transition rate %.3g risks overflow in uniformization" !rmax;
  (* reachability from the support of the initial distribution (default:
     the first-declared state, SHARPE's implicit initial state) *)
  let seed =
    match init with
    | Some v -> List.filter (fun i -> v.(i) > 0.0) (List.init c.n Fun.id)
    | None -> if c.n > 0 then [ 0 ] else []
  in
  let seen = Array.make c.n false in
  let stack = ref seed in
  List.iter (fun i -> seen.(i) <- true) seed;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        Sparse.iter_row c.q i (fun j v ->
            if j <> i && v > 0.0 && not seen.(j) then begin
              seen.(j) <- true;
              stack := j :: !stack
            end)
  done;
  let unreachable =
    List.filter (fun i -> not seen.(i)) (List.init c.n Fun.id)
  in
  if unreachable <> [] then
    Diag.emitf Diag.Warning ~solver:"ctmc"
      "%d state(s) unreachable from the initial distribution (e.g. %s)"
      (List.length unreachable)
      (name (List.hd unreachable))

let n_states c = c.n
let generator c = c.q
let rate c i j = if i = j then 0.0 else Sparse.get c.q i j
let exit_rate c i = c.exit.(i)
let is_absorbing c i = c.exit.(i) = 0.0

let absorbing_states c =
  List.filter (is_absorbing c) (List.init c.n Fun.id)

let partly_absorbing c =
  let absorbing = ref false and transient = ref false and i = ref 0 in
  while !i < c.n && not (!absorbing && !transient) do
    if is_absorbing c !i then absorbing := true else transient := true;
    incr i
  done;
  !absorbing && !transient

let steady_state c = Linsolve.ctmc_steady_state c.q

(* P^T for P = I + Q/lambda, in one counting transpose of Q's CSR: entry
   (i, j, q) lands at (j, i) as q/lambda, with 1 added on the diagonal (1
   alone where Q stores none), and an entry that comes to zero is left
   out.  Walking Q's rows in order fills each row of P^T in column
   order, so no sort is needed. *)
let uniform c =
  match c.unif with
  | Some u -> u
  | None ->
      let qmax = Array.fold_left Float.max 1e-300 c.exit in
      let lambda = 1.02 *. qmax in
      let n = c.n and rp, ci, qv = Sparse.raw c.q in
      (* P_ij for Q's k-th entry, and whether row i stores a diagonal *)
      let xs = Array.make (Array.length qv) 0.0 and diag = Array.make n false in
      let row_ptr = Array.make (n + 1) 0 in
      for i = 0 to n - 1 do
        for k = rp.(i) to rp.(i + 1) - 1 do
          let j = ci.(k) in
          let x =
            if j = i then begin
              diag.(i) <- true;
              (qv.(k) /. lambda) +. 1.0
            end
            else qv.(k) /. lambda
          in
          xs.(k) <- x;
          if x <> 0.0 then row_ptr.(j + 1) <- row_ptr.(j + 1) + 1
        done;
        if not diag.(i) then row_ptr.(i + 1) <- row_ptr.(i + 1) + 1
      done;
      for j = 1 to n do
        row_ptr.(j) <- row_ptr.(j) + row_ptr.(j - 1)
      done;
      let col_idx = Array.make row_ptr.(n) 0 and values = Array.make row_ptr.(n) 0.0 in
      let next = Array.sub row_ptr 0 n in
      for i = 0 to n - 1 do
        for k = rp.(i) to rp.(i + 1) - 1 do
          let x = xs.(k) in
          if x <> 0.0 then begin
            let j = ci.(k) in
            let p = next.(j) in
            col_idx.(p) <- i;
            values.(p) <- x;
            next.(j) <- p + 1
          end
        done;
        if not diag.(i) then begin
          let p = next.(i) in
          col_idx.(p) <- i;
          values.(p) <- 1.0;
          next.(i) <- p + 1
        end
      done;
      let pt = Sparse.of_raw ~rows:n ~cols:n ~row_ptr ~col_idx ~values in
      let u = { lambda; pt; reach = Sparse.prefix_reach pt } in
      c.unif <- Some u;
      u

let uniformized c =
  let u = uniform c in
  (u.lambda, u.pt)

let uniformized_dtmc c =
  let lambda, pt = uniformized c in
  (lambda, Sparse.transpose pt)

let check_init c init =
  if Array.length init <> c.n then invalid_arg "Ctmc: init length"

(* --- the iterate workspace ------------------------------------------ *)

(* Uniformization writes pi(t) = sum_k Poisson_k(lambda t) v_k with
   v_k = init P^k, and the iterates do not depend on t.  Each domain
   therefore keeps the iterates of its last series in a workspace keyed
   by the uniformized matrix (physical identity of P^T) and the bit
   pattern of the start vector (held as v_0): a run of queries on one
   chain and start vector -- a [loop t] of [srn_exrt], Markov [value]
   over t, the remainders after one ladder rung -- pays the longest
   series once instead of every series in full.

   Answers do not depend on what is resident: every v_(k+1) is the same
   [advance] product of v_k whichever domain or query computed it (the
   row-parallel split is bit-identical to serial), and each point still
   adds w_k v_k in k order and collapses the tail at the same k.  So the
   order of queries and the number of domains change only the number of
   multiplies, never an output bit or a Diag record.

   Every iterate carries a support bound h_k: v_k is zero from row h_k
   on.  h_0 is one past the start vector's last nonzero and h_(k+1) =
   [bound] reach h_k, so a series multiplies, accumulates and measures its
   steps over the rows it can have reached, not over all n (reachability
   numbers markings breadth-first, so a series from the initial marking
   spreads over a prefix of the states).  No bit moves.  A row past the
   bound is a sum of products with zeros, which is +0.0, as the full
   product computes it.  Adding w_k * 0 to an accumulator leaves it as
   it was, since an accumulator that starts at +0.0 never holds -0.0.
   Rows below the bound are summed as before.

   At most [iterate_budget] bytes of iterates are held per domain; a
   series that runs past them streams the rest from the last stored
   iterate through two scratch vectors. *)
let iterate_budget = 32 * 1024 * 1024

type workspace = {
  mutable pt : Sparse.t option; (* key: the uniformized P^T *)
  mutable dim : int; (* length of every allocated slot *)
  mutable vs : float array array; (* vs.(k) = v_k for k < count *)
  mutable bounds : int array;
      (* every allocated slot vs.(k) is zero from row bounds.(k) on,
         whichever series wrote it *)
  mutable steps : float array; (* steps.(k) = sup |v_(k+1) - v_k| *)
  mutable count : int;
      (* advanced only once an iterate and its step are both written, so
         a series cut short by a deadline leaves a valid prefix *)
}

let workspace_key : workspace Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { pt = None; dim = 0; vs = [||]; bounds = [||]; steps = [||]; count = 0 })

let workspace_bytes () =
  let ws = Domain.DLS.get workspace_key in
  Array.fold_left (fun b v -> b + (8 * Array.length v)) 0 ws.vs

let slots n = iterate_budget / (8 * max 1 n)

(* slot [k] of [ws], allocated on first use; [k] < [slots ws.dim] *)
let slot ws k =
  if k >= Array.length ws.vs then begin
    let len = min (slots ws.dim) (max 8 (2 * Array.length ws.vs)) in
    let grow a z =
      let a' = Array.make len z in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    ws.vs <- grow ws.vs [||];
    ws.bounds <- grow ws.bounds 0;
    ws.steps <- grow ws.steps 0.0
  end;
  if Array.length ws.vs.(k) <> ws.dim then begin
    ws.vs.(k) <- Array.make ws.dim 0.0;
    ws.bounds.(k) <- 0
  end;
  ws.vs.(k)

let same_bits a b =
  let n = Array.length a in
  let rec go i =
    i = n
    || Int64.equal (Int64.bits_of_float a.(i)) (Int64.bits_of_float b.(i))
       && go (i + 1)
  in
  Array.length b = n && go 0

(* one past the last nonzero of [v]: [v] is zero from there on *)
let support v =
  let h = ref (Array.length v) in
  while !h > 0 && v.(!h - 1) = 0.0 do
    decr h
  done;
  !h

(* The calling domain's workspace, re-keyed to ([pt], [init]) unless it
   already holds that series; [h0] is [support init]. *)
let workspace pt init h0 =
  let ws = Domain.DLS.get workspace_key in
  let held =
    ws.count > 0
    && (match ws.pt with Some p -> p == pt | None -> false)
    && same_bits ws.vs.(0) init
  in
  if not held then begin
    let n = Array.length init in
    ws.count <- 0;
    if n <> ws.dim then begin
      ws.dim <- n;
      ws.vs <- [||];
      ws.bounds <- [||];
      ws.steps <- [||]
    end;
    if slots n > 0 then begin
      ws.pt <- Some pt;
      Array.blit init 0 (slot ws 0) 0 n;
      ws.bounds.(0) <- h0;
      ws.count <- 1
    end
    else ws.pt <- None
  end;
  ws

(* the bound of v_(k+1) from that of v_k: never below it, so rows past it
   are zero in both iterates (P^T stores its positive diagonal, so this
   max only guards a generator adopted with a diagonal of -lambda) *)
let bound reach h = max h reach.(h)

(* [next] <- P^T [cur], with [h] the bound of the product and [next]
   zero from row [was] on: rows [0, h) by the prefix product, rows
   [h, was) cleared first.  [next] is then zero from [h] on, also when a
   deadline cuts the product short, since no row from [h] on is
   written. *)
let advance pt cur next ~was ~h =
  if was > h then Array.fill next h (was - h) 0.0;
  Sparse.par_mat_vec_prefix_into pt h cur next

(* The truncation error the transient and cumulative series allow *)
let eps = 1e-12

let transient c ~init t =
  check_init c init;
  if t <= 0.0 then Array.copy init
  else begin
    let { lambda; pt; reach } = uniform c in
    (* record the truncated-uniformization provenance once per solve *)
    let w = Poisson.window ~eps (lambda *. t) in
    Diag.emitf Diag.Info ~solver:"ctmc_transient" ~tolerance:eps
      "uniformization with lambda=%.6g; largest Poisson window [%d, %d] (lambda t = %.6g)"
      lambda w.Poisson.left w.Poisson.right (lambda *. t);
    let n = c.n in
    let acc = Array.make n 0.0 in
    let h0 = support init in
    let ws = workspace pt init h0 in
    let cap = slots n in
    (* past the budget: two scratch vectors and their bounds, swapped
       after every multiply, so a long series puts no vectors on the
       major heap *)
    let scratch = lazy (Array.make n 0.0, Array.make n 0.0, [| 0; 0 |]) in
    (* steady-state detection: once the DTMC iterate stops moving
       (sup-norm step below delta), every remaining term contributes the
       same vector, so the Poisson tail collapses to one update.  The
       committed error is at most the tail mass times delta. *)
    let delta = eps /. 8.0 in
    let v = ref init and h = ref h0 in
    let k = ref 0 in
    let finished = ref false in
    while not !finished do
      Deadline.check ();
      let kk = !k and cur = !v and hc = !h in
      if kk >= w.Poisson.left then begin
        let wk = w.Poisson.weights.(kk - w.Poisson.left) in
        for i = 0 to hc - 1 do
          acc.(i) <- acc.(i) +. (wk *. cur.(i))
        done
      end;
      if kk >= w.Poisson.right then finished := true
      else begin
        let step = ref 0.0 in
        let next, hn =
          if kk + 1 < ws.count then begin
            step := ws.steps.(kk);
            (ws.vs.(kk + 1), ws.bounds.(kk + 1))
          end
          else begin
            let keep = kk + 1 = ws.count && ws.count < cap in
            let next, bounds, j =
              if keep then
                (* [slot] may grow [ws.bounds]: read it after *)
                let next = slot ws (kk + 1) in
                (next, ws.bounds, kk + 1)
              else
                let a, b, sb = Lazy.force scratch in
                if cur == a then (b, sb, 1) else (a, sb, 0)
            in
            let hn = bound reach hc and was = bounds.(j) in
            bounds.(j) <- hn;
            (* v P as P^T v: identical accumulation order per output
               entry for this nonnegative system, hence bit-identical —
               and row-parallel when the reached rows are many and this
               call is not already inside a pool task *)
            advance pt cur next ~was ~h:hn;
            (* both iterates are zero from row hn on *)
            for i = 0 to hn - 1 do
              let d = Float.abs (next.(i) -. cur.(i)) in
              if d > !step then step := d
            done;
            if keep then begin
              ws.steps.(kk) <- !step;
              ws.count <- kk + 2
            end;
            (next, hn)
          end
        in
        v := next;
        h := hn;
        if !step <= delta then begin
          (* remaining Poisson mass, all weighting the settled vector *)
          let tail = ref 0.0 in
          for j = max (kk + 1) w.Poisson.left to w.Poisson.right do
            tail := !tail +. w.Poisson.weights.(j - w.Poisson.left)
          done;
          let tail = !tail in
          for i = 0 to hn - 1 do
            acc.(i) <- acc.(i) +. (tail *. next.(i))
          done;
          finished := true
        end
      end;
      incr k
    done;
    acc
  end

let cumulative c ~init t =
  check_init c init;
  if t <= 0.0 then Array.make c.n 0.0
  else begin
    let { lambda; pt; reach } = uniform c in
    let mean = lambda *. t in
    let acc = Array.make c.n 0.0 in
    (* two iterates swapped after every multiply, each with the row it is
       zero from: a term allocates nothing *)
    let v = ref (Array.copy init) and spare = ref (Array.make c.n 0.0) in
    let h = ref (support init) and hspare = ref 0 in
    (* weight for power k is (1 - sum_(j<=k) poisson_j(mean)) / lambda; track
       the survivor function directly (seeded with expm1) so the first
       weights stay accurate even for nearly-absorbing chains whose
       uniformization rate - and hence [mean] - is tiny *)
    let survivor = ref (-.Float.expm1 (-.mean)) in
    let k = ref 0 in
    let wsum = ref 0.0 in
    let continue_ = ref true in
    let truncated = ref false in
    while !continue_ do
      Deadline.check ();
      let wk = Float.max 0.0 (!survivor /. lambda) in
      if wk > 0.0 then begin
        wsum := !wsum +. wk;
        let cur = !v in
        for i = 0 to !h - 1 do
          acc.(i) <- acc.(i) +. (wk *. cur.(i))
        done
      end;
      if float_of_int !k > mean && !survivor < eps then continue_ := false
      else if !k > 5_000_000 then begin
        truncated := true;
        continue_ := false
      end
      else begin
        let cur = !v and next = !spare and hn = bound reach !h in
        advance pt cur next ~was:!hspare ~h:hn;
        v := next;
        spare := cur;
        hspare := !h;
        h := hn;
        incr k;
        survivor := Float.max 0.0 (!survivor -. Poisson.pmf mean !k)
      end
    done;
    if !truncated then
      (* sum over all k of the weights is exactly t, so the shortfall is
         the integrated probability mass the cutoff discarded *)
      Diag.emitf Diag.Warning ~solver:"ctmc_cumulative" ~iterations:!k
        ~residual:(Float.max 0.0 (t -. !wsum)) ~tolerance:eps
        "uniformization series truncated at the %d-step cap: %.3g of %g time units unaccounted"
        !k
        (Float.max 0.0 (t -. !wsum))
        t;
    acc
  end

let expected_reward_ss c ~reward =
  let pi = steady_state c in
  let s = ref 0.0 in
  Array.iteri (fun i p -> s := !s +. (p *. reward i)) pi;
  !s

let expected_reward_at c ~init ~reward t =
  let pi = transient c ~init t in
  let s = ref 0.0 in
  Array.iteri (fun i p -> s := !s +. (p *. reward i)) pi;
  !s

let cumulative_reward c ~init ~reward t =
  let l = cumulative c ~init t in
  let s = ref 0.0 in
  Array.iteri (fun i li -> s := !s +. (li *. reward i)) l;
  !s

(* --- absorption analysis ------------------------------------------- *)

let transient_indices c =
  let idx = Array.make c.n (-1) in
  let count = ref 0 in
  for i = 0 to c.n - 1 do
    if not (is_absorbing c i) then begin
      idx.(i) <- !count;
      incr count
    end
  done;
  (idx, !count)

let time_in_transient c ~init =
  check_init c init;
  let idx, nt = transient_indices c in
  if nt = c.n then invalid_arg "Ctmc: no absorbing state";
  (* Solve u Q_TT = -init_T  (row-vector form), i.e. Q_TT^T u = -init_T. *)
  let b = Array.make nt 0.0 in
  for i = 0 to c.n - 1 do
    if idx.(i) >= 0 then b.(idx.(i)) <- -.init.(i)
  done;
  let u =
    if nt <= 500 then begin
      Linsolve.note_dense ~solver:"time_in_transient" nt;
      let a = Matrix.create ~rows:nt ~cols:nt in
      Sparse.iter c.q (fun i j v ->
          if idx.(i) >= 0 && idx.(j) >= 0 then Matrix.add_to a idx.(j) idx.(i) v);
      Linsolve.gauss a b
    end
    else begin
      (* large transient blocks stay in CSR: build Q_TT row-wise, then
         transpose, and hand the system to the sparse solver chain *)
      let inv = Array.make nt 0 in
      Array.iteri (fun i r -> if r >= 0 then inv.(r) <- i) idx;
      let qtt =
        Sparse.of_rows ~nnz:(Sparse.nnz c.q) ~rows:nt ~cols:nt (fun r emit ->
            Sparse.iter_row c.q inv.(r) (fun j v -> if idx.(j) >= 0 then emit idx.(j) v))
      in
      Linsolve.solve (Sparse.transpose qtt) b
    end
  in
  Array.init c.n (fun i -> if idx.(i) >= 0 then u.(idx.(i)) else 0.0)

let mtta c ~init =
  Array.fold_left ( +. ) 0.0 (time_in_transient c ~init)

let reward_until_absorption c ~init ~reward =
  let u = time_in_transient c ~init in
  let s = ref 0.0 in
  Array.iteri (fun i ui -> s := !s +. (ui *. reward i)) u;
  !s

let absorption_probs c ~init =
  let u = time_in_transient c ~init in
  let out = Array.make c.n 0.0 in
  (* mass flowing into absorbing state a = init.(a) + sum_i u_i q_(i,a) *)
  for a = 0 to c.n - 1 do
    if is_absorbing c a then out.(a) <- init.(a)
  done;
  Sparse.iter c.q (fun i j v ->
      if i <> j && is_absorbing c j && not (is_absorbing c i) then
        out.(j) <- out.(j) +. (u.(i) *. v));
  out
