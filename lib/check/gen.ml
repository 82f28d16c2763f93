(* Seeded random model generators for the differential self-check
   harness.  Every generator is a pure function of its Srng state, so a
   model is reproduced exactly by re-seeding with the value printed in a
   discrepancy diagnostic.

   Design constraints, per generator:

   - acyclic CTMCs draw rates from a coarse grid.  The symbolic engine
     integrates exponomials whose rates are *differences* of exit rates;
     grid rates make those differences either exactly zero (handled by
     the equal-rate closed form) or well separated, so the oracle
     comparison tests the engines, not the intrinsic ill-conditioning of
     nearly-confluent partial fractions.
   - irreducible CTMCs contain a Hamiltonian ring plus random chords, so
     irreducibility holds by construction and the steady-state solvers
     are always comparing answers to the same well-posed question.
   - fault trees mark every multiply-referenced event as shared
     (SHARPE's `repeat`): a *basic* event referenced from two gates is by
     definition replicated into independent copies, which is exactly the
     semantics the BDD instantiation implements and the enumeration
     oracle must see the same formula for.
   - SRNs conserve tokens (every transition moves one token along a ring
     or a chord), which bounds the reachability set a priori and keeps
     the tangible chain irreducible. *)

module R = Srng
module Sparse = Sharpe_numerics.Sparse
module E = Sharpe_expo.Exponomial
module Dist = Sharpe_expo.Dist
module Ctmc = Sharpe_markov.Ctmc
module Ftree = Sharpe_ftree.Ftree
module Rbd = Sharpe_rbd.Rbd
module Net = Sharpe_petri.Net

let grid_rate r = 0.5 *. float_of_int (1 + R.int r 8) (* 0.5 .. 4.0 *)

(* Random proper CDF from SHARPE's built-in families, on the same coarse
   rate grid (equal rates hit the exact equal-rate convolution path;
   unequal ones are >= 0.5 apart, keeping partial fractions
   well-conditioned). *)
let cdf r =
  match R.int r 4 with
  | 0 -> Dist.exponential (grid_rate r)
  | 1 -> Dist.erlang (1 + R.int r 3) (grid_rate r)
  | 2 ->
      let m1 = grid_rate r and m2 = grid_rate r in
      if m1 = m2 then Dist.erlang 2 m1 else Dist.hypoexp m1 m2
  | _ ->
      let p = R.range r 0.05 0.95 in
      Dist.hyperexp (grid_rate r) p (grid_rate r) (1.0 -. p)

let _ = E.zero (* silence unused-module warnings when E is only used here *)

(* --- acyclic CTMC --------------------------------------------------- *)

(* states 0..n-1 in topological order; state n-1 absorbing *)
let acyclic_rates r =
  let n = 3 + R.int r 6 in
  let rates = ref [] in
  for i = 0 to n - 2 do
    let absorbing = i > 0 && R.float r < 0.15 in
    if not absorbing then begin
      let span = n - 1 - i in
      let deg = 1 + R.int r (min 3 span) in
      (* claim [deg] distinct targets above i *)
      let targets = Array.init span (fun k -> i + 1 + k) in
      for k = 0 to deg - 1 do
        let j = k + R.int r (span - k) in
        let t = targets.(j) in
        targets.(j) <- targets.(k);
        targets.(k) <- t;
        rates := (i, t, grid_rate r) :: !rates
      done
    end
  done;
  (n, !rates)

let acyclic_ctmc r =
  let n, rates = acyclic_rates r in
  let c = Ctmc.make ~n rates in
  let init = Array.make n 0.0 in
  if R.float r < 0.3 then begin
    let p = 0.25 +. (0.5 *. R.float r) in
    init.(0) <- p;
    init.(1) <- 1.0 -. p
  end
  else init.(0) <- 1.0;
  (c, init)

(* --- irreducible CTMC ----------------------------------------------- *)

let irreducible_rates r =
  let n = 2 + R.int r 19 in
  let rates = ref [] in
  for i = 0 to n - 1 do
    rates := (i, (i + 1) mod n, R.log_range r 0.01 100.0) :: !rates
  done;
  let chords = R.int r (2 * n) in
  for _ = 1 to chords do
    let i = R.int r n and j = R.int r n in
    if i <> j then rates := (i, j, R.log_range r 0.01 100.0) :: !rates
  done;
  (n, !rates)

let irreducible_ctmc r =
  let n, rates = irreducible_rates r in
  Ctmc.make ~n rates

(* --- fault tree ------------------------------------------------------ *)

let fault_tree r =
  let t = Ftree.create () in
  let n_shared = 2 + R.int r 4 in
  let shared =
    Array.init n_shared (fun i ->
        let name = Printf.sprintf "s%d" i in
        Ftree.repeat t name (Dist.exponential (R.log_range r 0.05 2.0));
        name)
  in
  let n_gates = 2 + R.int r 3 in
  let basics = ref 0 in
  let gates = ref [||] in
  for gi = 0 to n_gates - 1 do
    let arity = 2 + R.int r 2 in
    let inputs =
      List.init arity (fun _ ->
          let choice = R.float r in
          if choice < 0.4 then R.pick r shared
          else if choice < 0.75 || Array.length !gates = 0 then begin
            (* fresh basic event: referenced exactly once, so the
               BDD instantiation never has to replicate it *)
            incr basics;
            let name = Printf.sprintf "b%d" !basics in
            Ftree.basic t name (Dist.exponential (R.log_range r 0.05 2.0));
            name
          end
          else R.pick r !gates)
    in
    let kind =
      match R.int r 5 with
      | 0 | 1 -> Ftree.And
      | 2 | 3 -> Ftree.Or
      | _ -> Ftree.Kofn 2
    in
    let name = Printf.sprintf "g%d" gi in
    Ftree.gate t name kind inputs;
    gates := Array.append !gates [| name |]
  done;
  t

(* --- reliability block diagram --------------------------------------- *)

let rec rbd_block r depth =
  if depth = 0 || R.float r < 0.35 then
    Rbd.Comp (Dist.exponential (R.log_range r 0.1 5.0))
  else
    let parts k = List.init k (fun _ -> rbd_block r (depth - 1)) in
    match R.int r 4 with
    | 0 -> Rbd.Series (parts (2 + R.int r 2))
    | 1 -> Rbd.Parallel (parts (2 + R.int r 2))
    | 2 ->
        let n = 2 + R.int r 2 in
        Rbd.Kofn (1 + R.int r n, n, rbd_block r (depth - 1))
    | _ ->
        let n = 2 + R.int r 2 in
        Rbd.Kofn_list (1 + R.int r n, parts n)

let rbd r = rbd_block r 2

(* number of independent components, counting k-of-n replication *)
let rec rbd_leaves = function
  | Rbd.Comp _ -> 1
  | Rbd.Series l | Rbd.Parallel l | Rbd.Kofn_list (_, l) ->
      List.fold_left (fun a b -> a + rbd_leaves b) 0 l
  | Rbd.Kofn (_, n, b) -> n * rbd_leaves b

(* --- stochastic Petri net -------------------------------------------- *)

let srn r =
  let k = 2 + R.int r 3 in
  let tokens = 1 + R.int r 3 in
  let places =
    List.init k (fun i -> (Printf.sprintf "p%d" i, if i = 0 then tokens else 0))
  in
  let timed name src dst =
    let c = R.log_range r 0.05 20.0 in
    let rate =
      if R.bool r then fun (m : Net.marking) -> c *. float_of_int m.(src)
      else fun _ -> c
    in
    { Net.t_name = name;
      kind = Net.Timed;
      rate;
      guard = (fun _ -> true);
      priority = 0;
      inputs = [ (src, fun _ -> 1) ];
      outputs = [ (dst, fun _ -> 1) ];
      inhibitors = [] }
  in
  let trans = ref [] in
  for i = 0 to k - 1 do
    trans := timed (Printf.sprintf "ring%d" i) i ((i + 1) mod k) :: !trans
  done;
  let chords = R.int r k in
  for c = 1 to chords do
    let src = R.int r k and dst = R.int r k in
    if src <> dst then
      trans := timed (Printf.sprintf "chord%d" c) src dst :: !trans
  done;
  (* optionally a single immediate transition out of a non-initial place:
     its source place becomes vanishing-emptied, exercising the
     vanishing-marking elimination without ever creating vanishing loops *)
  if k > 1 && R.float r < 0.35 then begin
    let src = 1 + R.int r (k - 1) in
    let dst = (src + 1 + R.int r (k - 1)) mod k in
    if dst <> src then
      let w = R.range r 0.5 2.0 in
      trans :=
        { Net.t_name = "imm";
          kind = Net.Immediate;
          rate = (fun _ -> w);
          guard = (fun _ -> true);
          priority = 1;
          inputs = [ (src, fun _ -> 1) ];
          outputs = [ (dst, fun _ -> 1) ];
          inhibitors = [] }
        :: !trans
  end;
  Net.build ~places ~transitions:(List.rev !trans)

(* --- large sparse CTMCs (the Krylov tier) ---------------------------- *)

(* These generators build CSR generator matrices directly through
   [Sparse.of_rows] — never a triplet list, never a dense matrix — so a
   10^5-state model costs O(nnz) to construct.  Rates live in [0.5, 2.0]:
   the stationary vector of a long birth-death chain is a random walk in
   log space, so its dynamic range is enormous (components far from the
   mass peak underflow to zero), but both engines of a pair see the
   identical system and the comparisons are taken on masses and sampled
   components, not on ratios of subnormals. *)

let off_diag_row n i emit entries =
  let exit = List.fold_left (fun a (_, v) -> a +. v) 0.0 entries in
  if i >= n then invalid_arg "off_diag_row";
  emit i (-.exit);
  List.iter (fun (j, v) -> emit j v) entries

(* Pure birth-death chain, 10^4..10^5 states, nnz ~ 3n, bandwidth 1 (so
   banded GTH is an O(n) oracle).  The down rate at each level is the up
   rate times a factor within a few percent of 1: log pi is then a
   random walk with per-step size ~0.02, so over 10^5 states the
   stationary vector spans ~10 orders of magnitude instead of hundreds.
   Independent up/down draws would make the system singular beyond
   double precision — every solver would "converge" to a different
   quasi-null vector and the pair would test conditioning folklore, not
   engines. *)
let birth_death_q r =
  let n = 10_000 + R.int r 90_001 in
  let up = Array.init (n - 1) (fun _ -> R.range r 0.5 2.0) in
  let down =
    Array.map (fun u -> u *. Float.exp (R.range r (-0.02) 0.02)) up
  in
  Sparse.of_rows ~nnz:(3 * n) ~rows:n ~cols:n (fun i emit ->
      let es = if i < n - 1 then [ (i + 1, up.(i)) ] else [] in
      let es = if i > 0 then (i - 1, down.(i - 1)) :: es else es in
      off_diag_row n i emit es)

(* Birth-death plus a restart edge to state 0 from every state: the
   restart rate bounds the mixing time independently of n, so a forced
   Gauss-Seidel sweep converges in a bounded number of iterations and
   can serve as the oracle against Krylov. *)
let restart_ctmc_q r =
  let n = 10_000 + R.int r 40_001 in
  let up = Array.init (n - 1) (fun _ -> R.range r 0.5 2.0) in
  let down = Array.init (n - 1) (fun _ -> R.range r 0.5 2.0) in
  let restart = R.range r 0.1 0.3 in
  Sparse.of_rows ~nnz:(4 * n) ~rows:n ~cols:n (fun i emit ->
      let es = if i < n - 1 then [ (i + 1, up.(i)) ] else [] in
      let es = if i > 0 then (i - 1, down.(i - 1)) :: es else es in
      let es = if i > 0 then (0, restart) :: es else es in
      off_diag_row n i emit es)

(* 2-D lattice with independent random rates on every directed edge:
   row-major numbering gives bandwidth [side], so banded GTH (forced,
   ignoring its work budget) is an exact O(n * side^2) oracle while the
   Krylov side sees a genuinely two-dimensional sparsity pattern. *)
let mesh_q r =
  let side = 100 + R.int r 29 in
  let n = side * side in
  let rate _ = R.range r 0.5 2.0 in
  (* Draw all edge rates up front, in a fixed order, so the generator is
     a pure function of the seed regardless of of_rows evaluation
     order.  right.(i) is the rate i -> i+1, etc. *)
  let right = Array.init n rate
  and left = Array.init n rate
  and downr = Array.init n rate
  and upr = Array.init n rate in
  Sparse.of_rows ~nnz:(5 * n) ~rows:n ~cols:n (fun i emit ->
      let x = i mod side and y = i / side in
      let es = if x < side - 1 then [ (i + 1, right.(i)) ] else [] in
      let es = if x > 0 then (i - 1, left.(i)) :: es else es in
      let es = if y < side - 1 then (i + side, downr.(i)) :: es else es in
      let es = if y > 0 then (i - side, upr.(i)) :: es else es in
      off_diag_row n i emit es)

(* Token-bounded SRN whose tangible chain has ~10^4..2*10^4 states:
   4 places sharing N tokens (reachability = compositions of N into 4
   parts, C(N+3,3) markings), a ring of marking-proportional transitions
   plus two chords.  Proportional rates make the chain behave like
   independent migrations (fast mixing), so a forced SOR sweep converges
   and can anchor the Krylov side. *)
let large_srn r =
  let k = 4 in
  let tokens = 37 + R.int r 12 in
  let places =
    List.init k (fun i -> (Printf.sprintf "p%d" i, if i = 0 then tokens else 0))
  in
  let timed name src dst =
    let c = R.range r 0.5 2.0 in
    { Net.t_name = name;
      kind = Net.Timed;
      rate = (fun (m : Net.marking) -> c *. float_of_int m.(src));
      guard = (fun _ -> true);
      priority = 0;
      inputs = [ (src, fun _ -> 1) ];
      outputs = [ (dst, fun _ -> 1) ];
      inhibitors = [] }
  in
  let trans = ref [] in
  for i = 0 to k - 1 do
    trans := timed (Printf.sprintf "ring%d" i) i ((i + 1) mod k) :: !trans
  done;
  for c = 1 to 2 do
    let src = R.int r k in
    let dst = (src + 2) mod k in
    trans := timed (Printf.sprintf "chord%d" c) src dst :: !trans
  done;
  Net.build ~places ~transitions:(List.rev !trans)

(* --- PEPA cooperations ------------------------------------------------ *)

(* A generated PEPA case carries both the raw transition tables (the
   independent oracle composes the full product space from these) and
   the same model rendered as PEPA source (the subsystem side parses and
   compiles the text, exercising the whole front end).

   Legality by construction — the derivation rejects models where a
   passive move survives to the top level or a cooperation side mixes
   active and passive rates on one action, so the generator enforces:

   - the composition is a left-associated chain
     L0 <S0> L1 <S1> ... <S(K-2)> L(K-1);
   - each (leaf, action) pair has a single polarity;
   - at most one leaf is passive on any given action, and a passive
     (leaf k, a) requires a in S(k-1), the set of the leaf's immediate
     cooperation node.  The passive move is then either synchronized
     against the (all-active) left subtree — becoming active — or
     blocked; it can neither interleave to the top nor meet another
     passive move on the same action. *)

type pepa_move = {
  pm_src : int;
  pm_act : string;
  pm_rate : [ `Act of float | `Pass of float ];
  pm_tgt : int;
}

type pepa_leaf = { pl_n : int; pl_moves : pepa_move list }

type pepa_case = {
  pc_leaves : pepa_leaf array;
  pc_sets : string list array;  (* S(k) joins leaves 0..k with leaf k+1 *)
  pc_src : string;
}

let pepa_actions = [| "a"; "b"; "c"; "d" |]

let pepa_case r =
  let nact = Array.length pepa_actions in
  let k = 2 + R.int r 3 in
  let sets =
    Array.init (k - 1) (fun _ ->
        Array.to_list pepa_actions
        |> List.filter (fun _ -> R.int r 100 < 45))
  in
  (* grid rates: multiples of 0.25 in [0.25, 3], exact in binary and in
     the printed source *)
  let grid () = 0.25 *. float_of_int (1 + R.int r 12) in
  (* at most one passive leaf per action, anchored under a cooperation
     node whose set contains the action *)
  let passive = Hashtbl.create 4 in
  Array.iter
    (fun a ->
      if R.int r 100 < 35 then begin
        let eligible =
          List.init (k - 1) (fun i -> i + 1)
          |> List.filter (fun leaf -> List.mem a sets.(leaf - 1))
        in
        match eligible with
        | [] -> ()
        | l -> Hashtbl.replace passive (List.nth l (R.int r (List.length l)), a) ()
      end)
    pepa_actions;
  let leaves =
    Array.init k (fun leaf ->
        let n = 2 + R.int r 3 in
        let moves = ref [] in
        for src = 0 to n - 1 do
          let deg = 1 + R.int r 2 in
          for _ = 1 to deg do
            let act = pepa_actions.(R.int r nact) in
            let tgt = R.int r n in
            let rate =
              if Hashtbl.mem passive (leaf, act) then `Pass (grid ())
              else `Act (grid ())
            in
            moves := { pm_src = src; pm_act = act; pm_rate = rate; pm_tgt = tgt }
                     :: !moves
          done
        done;
        { pl_n = n; pl_moves = List.rev !moves })
  in
  (* render the same model as PEPA source; constants C<leaf>_<state> *)
  let buf = Buffer.create 512 in
  let pf = Sharpe_pepa.Ast.pp_float in
  Array.iteri
    (fun leaf l ->
      for src = 0 to l.pl_n - 1 do
        let prefixes =
          List.filter (fun m -> m.pm_src = src) l.pl_moves
          |> List.map (fun m ->
                 let rate =
                   match m.pm_rate with
                   | `Act v -> pf v
                   | `Pass w -> if w = 1.0 then "infty" else "infty * " ^ pf w
                 in
                 Printf.sprintf "(%s, %s).C%d_%d" m.pm_act rate leaf m.pm_tgt)
        in
        Buffer.add_string buf
          (Printf.sprintf "C%d_%d = %s\n" leaf src (String.concat " + " prefixes))
      done)
    leaves;
  Buffer.add_string buf "C0_0";
  Array.iteri
    (fun i set ->
      Buffer.add_string buf
        (Printf.sprintf " <%s> C%d_0" (String.concat "," set) (i + 1)))
    sets;
  Buffer.add_char buf '\n';
  { pc_leaves = leaves; pc_sets = sets; pc_src = Buffer.contents buf }
