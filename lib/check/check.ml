(* Differential self-check harness.

   Every oracle pair evaluates a seeded random model two independent
   ways — symbolic exponomials vs uniformization, iterative vs direct
   linear solves, BDD vs brute-force enumeration, symbolic calculus vs
   numeric quadrature — and any disagreement beyond the relative
   tolerance is reported through the Diag sink together with the seed
   that reproduces the model ([replay pair seed] rebuilds it exactly).

   Tolerance rationale: each engine in a pair is individually accurate
   to ~1e-8 on the generated model classes (generators deliberately
   avoid regimes that are intrinsically ill-conditioned, see gen.ml), so
   the default 1e-6 relative tolerance leaves two orders of magnitude of
   headroom — a real bug produces errors far above it, a healthy pair
   stays far below. *)

open Sharpe_numerics
module R = Srng
module E = Sharpe_expo.Exponomial
module Ctmc = Sharpe_markov.Ctmc
module Acyclic = Sharpe_markov.Acyclic
module F = Sharpe_bdd.Formula
module Ftree = Sharpe_ftree.Ftree
module Rbd = Sharpe_rbd.Rbd
module Reach = Sharpe_petri.Reach
module Pepa = Sharpe_pepa.Pepa

(* A generated model that is legitimately outside an oracle's reach
   (e.g. too many variables to enumerate); not an error. *)
exception Skip of string

type comparison = { what : string; a : float; b : float }

(* Probabilities and means compare relative to max(1, |a|, |b|): for
   values of order one this is a relative test, for tiny steady-state
   components it degrades to an absolute one instead of amplifying
   noise that no measure can observe. *)
let rel_err a b =
  Float.abs (a -. b) /. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* --- numeric quadrature (the independent side of the expo oracle) ---- *)

(* Composite Simpson on [a, b] with n (even) subintervals. *)
let simpson f a b n =
  let n = if n land 1 = 1 then n + 1 else n in
  let h = (b -. a) /. float_of_int n in
  let s = ref (f a +. f b) in
  for i = 1 to n - 1 do
    let w = if i land 1 = 1 then 4.0 else 2.0 in
    s := !s +. (w *. f (a +. (h *. float_of_int i)))
  done;
  !s *. h /. 3.0

(* slowest decay rate of an exponomial: bounds how far its survival
   function carries mass *)
let min_decay f =
  List.fold_left
    (fun acc tm -> if tm.E.rate < 0.0 then Float.min acc (-.tm.E.rate) else acc)
    infinity (E.terms f)

(* --- oracle pairs ----------------------------------------------------- *)

(* symbolic exponomial state probabilities vs uniformization *)
let check_acyclic r =
  let c, init = Gen.acyclic_ctmc r in
  let n = Ctmc.n_states c in
  let probs = Acyclic.state_probabilities c ~init in
  let ts = [ 0.05; 0.3; 1.0; 3.0 ] in
  let numeric = List.map (fun t -> (t, Ctmc.transient c ~init t)) ts in
  List.concat_map
    (fun (t, v) ->
      List.init n (fun i ->
          { what = Printf.sprintf "P[state %d](t=%g)" i t;
            a = E.eval probs.(i) t;
            b = v.(i) }))
    numeric

(* clamp floating-point negatives and renormalize, mirroring what the
   iterative path does to its accepted iterate *)
let as_distribution x =
  Array.iteri (fun i v -> if v < 0.0 then x.(i) <- 0.0) x;
  let s = Array.fold_left ( +. ) 0.0 x in
  if s <> 0.0 then Array.iteri (fun i v -> x.(i) <- v /. s) x;
  x

let steady_comparisons ~what q =
  let iterative = Linsolve.ctmc_steady_state ~direct_threshold:0 q in
  let direct = as_distribution (Linsolve.steady_state_direct q) in
  Array.to_list
    (Array.mapi
       (fun i a -> { what = Printf.sprintf "%s[%d]" what i; a; b = direct.(i) })
       iterative)

(* Gauss-Seidel/SOR steady state vs direct Gaussian elimination *)
let check_steady r =
  let c = Gen.irreducible_ctmc r in
  steady_comparisons ~what:"pi" (Ctmc.generator c)

(* the same steady-state pair, on the tangible chain of a random SRN
   (exercises reachability exploration and vanishing-marking removal) *)
let check_srn r =
  let net = Gen.srn r in
  let g = Reach.build net in
  steady_comparisons ~what:"srn pi" (Ctmc.generator (Reach.ctmc g))

let rec truth bits = function
  | F.True -> true
  | F.False -> false
  | F.Var v -> bits land (1 lsl v) <> 0
  | F.Not f -> not (truth bits f)
  | F.And fs -> List.for_all (truth bits) fs
  | F.Or fs -> List.exists (truth bits) fs
  | F.Kofn (k, fs) ->
      List.length (List.filter (fun f -> truth bits f) fs) >= k

(* total probability of the satisfying assignments, by enumeration *)
let enum_prob nvars formula p =
  let total = ref 0.0 in
  for mask = 0 to (1 lsl nvars) - 1 do
    if truth mask formula then begin
      let w = ref 1.0 in
      for v = 0 to nvars - 1 do
        w := !w *. (if mask land (1 lsl v) <> 0 then p.(v) else 1.0 -. p.(v))
      done;
      total := !total +. !w
    end
  done;
  !total

(* fault-tree top event probability: BDD vs truth-table enumeration over
   the SAME instantiated formula (instantiation replicates non-shared
   events into independent variables; enumerating the name-resolved
   structure instead would test a different model) *)
let check_ftree r =
  let t = Gen.fault_tree r in
  let inst = Ftree.instantiate t (Ftree.top t) in
  let nvars = inst.Ftree.nvars in
  if nvars > 10 then
    raise (Skip (Printf.sprintf "instantiated tree has %d variables" nvars));
  List.map
    (fun time ->
      let p = Array.map (fun d -> E.eval d time) inst.Ftree.dists in
      { what = Printf.sprintf "top event prob(t=%g)" time;
        a = Ftree.prob_at t time;
        b = enum_prob nvars inst.Ftree.formula p })
    [ 0.5; 2.0 ]

(* Component failure states of an RBD, enumerated in traversal order;
   [leaves] and [fails] must walk the block identically so bit i of the
   mask always refers to the same physical component (k-of-n replicates
   its part into n independent copies). *)
let rbd_leaves blk =
  let acc = ref [] in
  let rec go = function
    | Rbd.Comp f -> acc := f :: !acc
    | Rbd.Series l | Rbd.Parallel l | Rbd.Kofn_list (_, l) -> List.iter go l
    | Rbd.Kofn (_, n, part) ->
        for _ = 1 to n do
          go part
        done
  in
  go blk;
  Array.of_list (List.rev !acc)

let rec rbd_fails bits idx = function
  | Rbd.Comp _ ->
      let b = bits land (1 lsl !idx) <> 0 in
      incr idx;
      b
  | Rbd.Series l ->
      List.fold_left
        (fun acc part ->
          let f = rbd_fails bits idx part in
          acc || f)
        false l
  | Rbd.Parallel l ->
      List.fold_left
        (fun acc part ->
          let f = rbd_fails bits idx part in
          acc && f)
        true l
  | Rbd.Kofn (k, n, part) ->
      let failed = ref 0 in
      for _ = 1 to n do
        if rbd_fails bits idx part then incr failed
      done;
      !failed >= n - k + 1
  | Rbd.Kofn_list (k, parts) ->
      let failed =
        List.fold_left
          (fun acc part -> if rbd_fails bits idx part then acc + 1 else acc)
          0 parts
      in
      failed >= List.length parts - k + 1

(* RBD unreliability: symbolic series-parallel/k-of-n closed form vs
   enumeration over component failure states *)
let check_rbd r =
  let blk = Gen.rbd r in
  let leaves = rbd_leaves blk in
  let n = Array.length leaves in
  if n > 12 then raise (Skip (Printf.sprintf "block diagram has %d components" n));
  let cdf = Rbd.failure_cdf blk in
  List.map
    (fun time ->
      let p = Array.map (fun d -> E.eval d time) leaves in
      let total = ref 0.0 in
      for mask = 0 to (1 lsl n) - 1 do
        if rbd_fails mask (ref 0) blk then begin
          let w = ref 1.0 in
          for v = 0 to n - 1 do
            w := !w *. (if mask land (1 lsl v) <> 0 then p.(v) else 1.0 -. p.(v))
          done;
          total := !total +. !w
        end
      done;
      { what = Printf.sprintf "unreliability(t=%g)" time;
        a = E.eval cdf time;
        b = !total })
    [ 0.5; 2.0 ]

(* exponomial calculus (convolve / integrate / mean) vs quadrature *)
let check_expo r =
  let f = Gen.cdf r and g = Gen.cdf r in
  let ts = [ 0.4; 1.3; 3.1 ] in
  let h = E.convolve f g in
  let df = E.deriv f in
  let f0 = E.mass_at_zero f in
  let conv =
    List.map
      (fun t ->
        let quad =
          (f0 *. E.eval g t)
          +. simpson (fun x -> E.eval df x *. E.eval g (t -. x)) 0.0 t 1024
        in
        { what = Printf.sprintf "convolve(t=%g)" t; a = E.eval h t; b = quad })
      ts
  in
  let fint = E.integrate f in
  let integ =
    List.map
      (fun t ->
        { what = Printf.sprintf "integrate(t=%g)" t;
          a = E.eval fint t;
          b = simpson (fun x -> E.eval f x) 0.0 t 512 })
      ts
  in
  let lam = min_decay f in
  let mean =
    if not (Float.is_finite lam) then []
    else
      let horizon = 30.0 /. lam in
      let survival x = 1.0 -. E.eval f x in
      [ { what = "mean";
          a = E.mean f;
          b = simpson survival 0.0 horizon 16384 } ]
  in
  conv @ integ @ mean

(* --- large-model pairs (the Krylov tier) ------------------------------ *)

(* A 10^4-10^5-state steady-state vector is not compared component by
   component: most components are tiny (the relative test would degrade
   to a vacuous absolute one) and the comparison list would dwarf the
   solve.  Instead each model contributes O(1)-scale aggregates with
   real discriminating power — decile masses, a global functional
   touching every component, the oracle's modal component — plus a
   seeded spot-sample of raw components.  The sample indices are drawn
   from the model's own rng stream, so [replay] reproduces them. *)
let sampled_comparisons ~what r a b =
  let n = Array.length a in
  let comps = ref [] in
  let add what va vb = comps := { what; a = va; b = vb } :: !comps in
  let da = Array.make 10 0.0 and db = Array.make 10 0.0 in
  Array.iteri (fun i v -> da.(i * 10 / n) <- da.(i * 10 / n) +. v) a;
  Array.iteri (fun i v -> db.(i * 10 / n) <- db.(i * 10 / n) +. v) b;
  for d = 0 to 9 do
    add (Printf.sprintf "%s decile[%d] mass" what d) da.(d) db.(d)
  done;
  let functional pi =
    let s = ref 0.0 in
    Array.iteri (fun i p -> s := !s +. (p *. float_of_int (i mod 7))) pi;
    !s
  in
  add (Printf.sprintf "%s E[i mod 7]" what) (functional a) (functional b);
  let amax = ref 0 in
  Array.iteri (fun i v -> if v > b.(!amax) then amax := i) b;
  add (Printf.sprintf "%s argmax[%d]" what !amax) a.(!amax) b.(!amax);
  for _ = 1 to 120 do
    let i = R.int r n in
    add (Printf.sprintf "%s[%d]" what i) a.(i) b.(i)
  done;
  List.rev !comps

(* Solve the same generator twice under two forced solver methods.  A
   forced method that fails emits an error diagnostic and no fallback
   runs, so a non-converging Krylov (or oracle) solve is counted by the
   harness as an engine error rather than silently replaced. *)
let large_steady_pair ~what ~ma ~mb q r =
  let a = Linsolve.with_method ma (fun () -> Linsolve.ctmc_steady_state q) in
  let b = Linsolve.with_method mb (fun () -> Linsolve.ctmc_steady_state q) in
  sampled_comparisons ~what r a b

let check_large_bd r =
  let q = Gen.birth_death_q r in
  large_steady_pair ~what:"bd pi" ~ma:Linsolve.Bicgstab ~mb:Linsolve.Gth q r

let check_large_restart r =
  let q = Gen.restart_ctmc_q r in
  large_steady_pair ~what:"restart pi" ~ma:Linsolve.Gmres
    ~mb:Linsolve.Gauss_seidel q r

let check_large_mesh r =
  let q = Gen.mesh_q r in
  large_steady_pair ~what:"mesh pi" ~ma:Linsolve.Bicgstab ~mb:Linsolve.Gth q r

let check_large_srn r =
  let net = Gen.large_srn r in
  let g = Reach.build net in
  let q = Ctmc.generator (Reach.ctmc g) in
  large_steady_pair ~what:"srn pi" ~ma:Linsolve.Gmres ~mb:Linsolve.Sor q r

(* --- PEPA: front-end translation vs hand-composed product space ------ *)

(* The independent side composes the full product state space pairwise
   from the raw transition tables of a generated cooperation: state
   (i, j) of [P <S> Q] is index [i * nQ + j], moves on actions outside
   [S] interleave, and moves on a shared action synchronize under the
   apparent-rate rules restated here from Hillston's definition —
   active x against active y gives (x/ra)(y/rb)min(ra, rb); active x
   against passive weight w gives x*w/W; two passives combine weights
   and stay passive.  This duplicates the semantics of
   lib/pepa/derive.ml on purpose, over the complete product space with
   plain lists instead of a reachability BFS over hash-consed leaf
   vectors, so a bug in either composition shows up as disagreement.
   The subsystem side starts from the printed source text, exercising
   the whole front end (lexer, parser, well-formedness, derivation,
   CSR assembly) on every seeded model. *)
let pepa_compose (n1, m1) set (n2, m2) =
  let open Gen in
  let idx i j = (i * n2) + j in
  let out = ref [] in
  let add src act kind tgt =
    out := { pm_src = src; pm_act = act; pm_rate = kind; pm_tgt = tgt } :: !out
  in
  List.iter
    (fun m ->
      if not (List.mem m.pm_act set) then
        for j = 0 to n2 - 1 do
          add (idx m.pm_src j) m.pm_act m.pm_rate (idx m.pm_tgt j)
        done)
    m1;
  List.iter
    (fun m ->
      if not (List.mem m.pm_act set) then
        for i = 0 to n1 - 1 do
          add (idx i m.pm_src) m.pm_act m.pm_rate (idx i m.pm_tgt)
        done)
    m2;
  List.iter
    (fun a ->
      for i = 0 to n1 - 1 do
        for j = 0 to n2 - 1 do
          let ms1 = List.filter (fun m -> m.pm_src = i && m.pm_act = a) m1 in
          let ms2 = List.filter (fun m -> m.pm_src = j && m.pm_act = a) m2 in
          if ms1 <> [] && ms2 <> [] then begin
            let split ms =
              List.fold_left
                (fun (ra, w) m ->
                  match m.pm_rate with
                  | `Act v -> (ra +. v, w)
                  | `Pass v -> (ra, w +. v))
                (0.0, 0.0) ms
            in
            let ra1, w1 = split ms1 and ra2, w2 = split ms2 in
            if (ra1 > 0.0 && w1 > 0.0) || (ra2 > 0.0 && w2 > 0.0) then
              raise (Skip "cooperation side mixes active and passive");
            List.iter
              (fun x ->
                List.iter
                  (fun y ->
                    let kind =
                      match (x.pm_rate, y.pm_rate) with
                      | `Act rx, `Act ry ->
                          `Act (rx /. ra1 *. (ry /. ra2) *. Float.min ra1 ra2)
                      | `Act rx, `Pass wy -> `Act (rx *. wy /. w2)
                      | `Pass wx, `Act ry -> `Act (ry *. wx /. w1)
                      | `Pass wx, `Pass wy ->
                          `Pass (wx /. w1 *. (wy /. w2) *. Float.min w1 w2)
                    in
                    add (idx i j) a kind (idx x.pm_tgt y.pm_tgt))
                  ms2)
              ms1
          end
        done
      done)
    set;
  (n1 * n2, !out)

let check_pepa r =
  let case = Gen.pepa_case r in
  let n, moves =
    let acc =
      ref (case.Gen.pc_leaves.(0).Gen.pl_n, case.Gen.pc_leaves.(0).Gen.pl_moves)
    in
    Array.iteri
      (fun i set ->
        let l = case.Gen.pc_leaves.(i + 1) in
        acc := pepa_compose !acc set (l.Gen.pl_n, l.Gen.pl_moves))
      case.Gen.pc_sets;
    !acc
  in
  (* reachability over the product; a passive move enabled in a
     reachable state would be a top-level passive action (the generator
     precludes it, but Skip rather than trust that invariant here) *)
  let out = Array.make n [] in
  List.iter (fun m -> out.(m.Gen.pm_src) <- m :: out.(m.Gen.pm_src)) moves;
  let reach = Array.make n false in
  let stack = ref [ 0 ] in
  reach.(0) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | s :: rest ->
        stack := rest;
        List.iter
          (fun m ->
            (match m.Gen.pm_rate with
            | `Pass _ -> raise (Skip "passive action at top level")
            | `Act _ -> ());
            if not reach.(m.Gen.pm_tgt) then begin
              reach.(m.Gen.pm_tgt) <- true;
              stack := m.Gen.pm_tgt :: !stack
            end)
          out.(s)
  done;
  let oracle =
    Ctmc.make ~n
      (List.filter_map
         (fun m ->
           if m.Gen.pm_src = m.Gen.pm_tgt then None
           else
             match m.Gen.pm_rate with
             | `Act v -> Some (m.Gen.pm_src, m.Gen.pm_tgt, v)
             | `Pass _ -> None)
         moves)
  in
  let c =
    try Pepa.compile ~resolve:(fun _ -> None) (Pepa.parse case.Gen.pc_src)
    with Pepa.Error msg ->
      failwith ("pepa front end rejected a generated model: " ^ msg)
  in
  (* map derived states (per-leaf local indices in discovery order) to
     product indices through the generated C<leaf>_<state> names *)
  let oracle_local =
    Pepa.local_state_names c
    |> List.map (fun names ->
           List.map
             (* "C<leaf>_<state>"; %d would eat the '_' as an OCaml
                digit separator, so split by hand *)
             (fun nm ->
               let u = String.rindex nm '_' in
               int_of_string (String.sub nm (u + 1) (String.length nm - u - 1)))
             names
           |> Array.of_list)
    |> Array.of_list
  in
  let radix = Array.map (fun l -> l.Gen.pl_n) case.Gen.pc_leaves in
  let product_index v =
    let acc = ref 0 in
    Array.iteri
      (fun k jd -> acc := (!acc * radix.(k)) + oracle_local.(k).(jd))
      v;
    !acc
  in
  let init = Array.make n 0.0 in
  init.(0) <- 1.0;
  let comps = ref [] in
  List.iter
    (fun t ->
      let pio = Ctmc.transient oracle ~init t in
      let pis = Pepa.transient c t in
      let mapped = Array.make n 0.0 in
      Array.iteri
        (fun i p ->
          let j = product_index (Pepa.state_vector c i) in
          mapped.(j) <- mapped.(j) +. p)
        pis;
      for s = 0 to n - 1 do
        comps :=
          { what = Printf.sprintf "pepa pi[%d](t=%g)" s t;
            a = mapped.(s);
            b = pio.(s) }
          :: !comps
      done;
      List.iter
        (fun a ->
          let oracle_rate =
            List.fold_left
              (fun acc m ->
                match m.Gen.pm_rate with
                | `Act v when String.equal m.Gen.pm_act a ->
                    acc +. (v *. pio.(m.Gen.pm_src))
                | _ -> acc)
              0.0 moves
          in
          comps :=
            { what = Printf.sprintf "pepa tput[%s](t=%g)" a t;
              a = Pepa.throughput c pis a;
              b = oracle_rate }
            :: !comps)
        (Pepa.actions c))
    [ 0.4; 1.7 ];
  List.rev !comps

let small_pairs =
  [ ("acyclic-vs-uniformization", check_acyclic);
    ("steady-gs-vs-direct", check_steady);
    ("srn-gs-vs-direct", check_srn);
    ("ftree-bdd-vs-enum", check_ftree);
    ("rbd-vs-enum", check_rbd);
    ("expo-vs-quadrature", check_expo);
    ("pepa-vs-product", check_pepa) ]

let large_pairs =
  [ ("large-bd-bicgstab-vs-gth", check_large_bd);
    ("large-restart-gmres-vs-gs", check_large_restart);
    ("large-mesh-bicgstab-vs-gth", check_large_mesh);
    ("large-srn-gmres-vs-sor", check_large_srn) ]

let oracle_pairs = small_pairs @ large_pairs
let pair_names = List.map fst small_pairs
let large_pair_names = List.map fst large_pairs

let oracle_of name =
  match List.assoc_opt name oracle_pairs with
  | Some o -> o
  | None ->
      invalid_arg
        (Printf.sprintf "Check: unknown oracle pair %S (known: %s)" name
           (String.concat ", " pair_names))

(* Rebuild and re-evaluate the single model behind a reported seed. *)
let replay name seed = (oracle_of name) (R.make seed)

(* --- harness ---------------------------------------------------------- *)

type discrepancy = {
  d_pair : string;
  d_seed : int;
  d_what : string;
  d_a : float;
  d_b : float;
  d_err : float;
}

type pair_report = {
  p_name : string;
  mutable p_models : int; (* models fully evaluated by both engines *)
  mutable p_comparisons : int;
  mutable p_skipped : int;
  mutable p_errors : int; (* error diagnostics + analysis failures *)
  mutable p_worst : float; (* largest relative error seen *)
}

type report = {
  r_seed : int;
  r_count : int;
  r_tol : float;
  r_pairs : pair_report list;
  r_discrepancies : discrepancy list;
}

let total_models rep =
  List.fold_left (fun acc p -> acc + p.p_models) 0 rep.r_pairs

let total_errors rep =
  List.fold_left (fun acc p -> acc + p.p_errors) 0 rep.r_pairs

(* Deliberate fault injection for harness self-tests: nudge the second
   engine's first answer by 1e-3 — three orders of magnitude above the
   default tolerance — so a healthy harness MUST flag it. *)
let perturb_first = function
  | [] -> []
  | c :: rest ->
      { c with b = c.b +. (1e-3 *. Float.max 1.0 (Float.abs c.b)) } :: rest

let run_model ~tol ~inject rep discs name oracle mseed =
  let sink = Diag.create_sink () in
  let result =
    Diag.with_isolated_sink sink (fun () ->
        match oracle (R.make mseed) with
        | comps -> `Ok comps
        | exception Skip msg -> `Skip msg
        | exception (Failure msg | Invalid_argument msg) -> `Fail msg
        | exception Linsolve.Singular -> `Fail "singular linear system")
  in
  let records = Diag.records sink in
  (* engine-internal error diagnostics count against the pair and are
     replayed into the surrounding sink with the reproducing seed *)
  let errs = List.filter (fun d -> d.Diag.severity = Diag.Error) records in
  if errs <> [] then begin
    rep.p_errors <- rep.p_errors + List.length errs;
    Diag.with_context (Printf.sprintf "selfcheck %s seed=%d" name mseed)
      (fun () -> List.iter Diag.emit_record errs)
  end;
  match result with
  | `Skip _ ->
      rep.p_skipped <- rep.p_skipped + 1;
      false
  | `Fail msg ->
      rep.p_errors <- rep.p_errors + 1;
      Diag.emitf Diag.Error ~solver:"selfcheck"
        "pair %s seed=%d: analysis failed: %s" name mseed msg;
      false
  | `Ok comps ->
      rep.p_models <- rep.p_models + 1;
      let comps = if inject then perturb_first comps else comps in
      List.iter
        (fun c ->
          rep.p_comparisons <- rep.p_comparisons + 1;
          let e = rel_err c.a c.b in
          if e > rep.p_worst then rep.p_worst <- e;
          (* [not (e <= tol)] also catches NaN *)
          if not (e <= tol) then begin
            discs :=
              { d_pair = name;
                d_seed = mseed;
                d_what = c.what;
                d_a = c.a;
                d_b = c.b;
                d_err = e }
              :: !discs;
            Diag.emitf Diag.Error ~solver:"selfcheck"
              "pair %s seed=%d: %s disagrees: %.12g vs %.12g (rel err %.3g, tol %.3g)"
              name mseed c.what c.a c.b e tol
          end)
        comps;
      true

(* Run [count] models per selected oracle pair, deriving each model's
   seed from the master [seed] and the pair name.  [inject] perturbs one
   engine of the named pair, to prove the harness would catch a bug. *)
let run ?(tol = 1e-6) ?inject ?(pairs = pair_names) ~seed ~count () =
  let discs = ref [] in
  let reports =
    List.map
      (fun name ->
        let oracle = oracle_of name in
        let inject = inject = Some name in
        let rep =
          { p_name = name;
            p_models = 0;
            p_comparisons = 0;
            p_skipped = 0;
            p_errors = 0;
            p_worst = 0.0 }
        in
        (* draw fresh attempts past legitimate skips so every pair really
           evaluates [count] models; the attempt cap keeps a degenerate
           generator from spinning forever *)
        let i = ref 0 in
        let max_attempts = max (4 * count) (count + 16) in
        while rep.p_models + rep.p_errors < count && !i < max_attempts do
          Deadline.check ();
          let mseed = R.derive seed name !i in
          ignore (run_model ~tol ~inject rep discs name oracle mseed);
          incr i
        done;
        rep)
      pairs
  in
  { r_seed = seed;
    r_count = count;
    r_tol = tol;
    r_pairs = reports;
    r_discrepancies = List.rev !discs }

let pair_summary p =
  Printf.sprintf "%-28s %4d models  %5d comparisons  %3d skipped  %d errors  worst rel err %.3g"
    p.p_name p.p_models p.p_comparisons p.p_skipped p.p_errors p.p_worst

let summary rep =
  let lines = List.map pair_summary rep.r_pairs in
  let verdict =
    Printf.sprintf "selfcheck: %d models, %d discrepancies, %d errors (seed %d, tol %.1g)"
      (total_models rep)
      (List.length rep.r_discrepancies)
      (total_errors rep) rep.r_seed rep.r_tol
  in
  String.concat "\n" (lines @ [ verdict ])
