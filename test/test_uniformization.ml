(* Bit-identity of transients read through the per-domain iterate
   workspace, and of cumulatives beside them.  The oracles are the loops
   [Ctmc.transient] and [Ctmc.cumulative] ran before iterates were
   shared: every query restarts from its start vector and streams the
   series through two swapped buffers.  Whatever the workspace holds --
   another chain, another start vector, a shorter or longer prefix, a
   prefix cut short by a deadline, or nothing past the byte budget --
   every answer must carry the oracle's bits.  A cumulative still
   streams: it must carry its oracle's bits whatever the workspace
   holds, and leave the transients' series alone. *)

module Sparse = Sharpe_numerics.Sparse
module Poisson = Sharpe_numerics.Poisson
module Pool = Sharpe_numerics.Pool
module Deadline = Sharpe_numerics.Deadline
module Diag = Sharpe_numerics.Diag
module Ctmc = Sharpe_markov.Ctmc
module Net = Sharpe_petri.Net
module Reach = Sharpe_petri.Reach
module Srn = Sharpe_petri.Srn
module Gen = Sharpe_check.Gen
module Srng = Sharpe_check.Srng

(* pi(t) from [init] and the last k the series reached (below the window's
   right end when the iterates settled first) *)
let oracle ?(eps = 1e-12) c ~init t =
  let lambda, p = Ctmc.uniformized_dtmc c in
  let pt = Sparse.transpose p in
  if t <= 0.0 then (Array.copy init, 0)
  else begin
    let w = Poisson.window ~eps (lambda *. t) in
    let n = Ctmc.n_states c in
    let acc = Array.make n 0.0 in
    let v = ref (Array.copy init) and spare = ref (Array.make n 0.0) in
    let delta = eps /. 8.0 in
    let k = ref 0 in
    let finished = ref false in
    while not !finished do
      let kk = !k in
      if kk >= w.Poisson.left then begin
        let wk = w.Poisson.weights.(kk - w.Poisson.left) and cur = !v in
        for i = 0 to n - 1 do
          acc.(i) <- acc.(i) +. (wk *. cur.(i))
        done
      end;
      if kk >= w.Poisson.right then finished := true
      else begin
        let cur = !v and next = !spare in
        Sparse.par_mat_vec_into pt cur next;
        let step = ref 0.0 in
        for i = 0 to n - 1 do
          let d = Float.abs (next.(i) -. cur.(i)) in
          if d > !step then step := d
        done;
        v := next;
        spare := cur;
        if !step <= delta then begin
          let tail = ref 0.0 in
          for j = max (kk + 1) w.Poisson.left to w.Poisson.right do
            tail := !tail +. w.Poisson.weights.(j - w.Poisson.left)
          done;
          let tail = !tail in
          for i = 0 to n - 1 do
            acc.(i) <- acc.(i) +. (tail *. next.(i))
          done;
          finished := true
        end
      end;
      if not !finished then incr k
    done;
    (acc, !k)
  end

(* L(t) from [init] and the number of terms the series took *)
let cumulative_oracle ?(eps = 1e-12) c ~init t =
  let lambda, p = Ctmc.uniformized_dtmc c in
  let pt = Sparse.transpose p in
  let n = Ctmc.n_states c in
  if t <= 0.0 then (Array.make n 0.0, 0)
  else begin
    let mean = lambda *. t in
    let acc = Array.make n 0.0 in
    let v = ref (Array.copy init) and spare = ref (Array.make n 0.0) in
    let survivor = ref (-.Float.expm1 (-.mean)) in
    let k = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let wk = Float.max 0.0 (!survivor /. lambda) in
      if wk > 0.0 then Array.iteri (fun i vi -> acc.(i) <- acc.(i) +. (wk *. vi)) !v;
      if float_of_int !k > mean && !survivor < eps then continue_ := false
      else if !k > 5_000_000 then continue_ := false
      else begin
        let cur = !v and next = !spare in
        Sparse.par_mat_vec_into pt cur next;
        v := next;
        spare := cur;
        incr k;
        survivor := Float.max 0.0 (!survivor -. Poisson.pmf mean !k)
      end
    done;
    (acc, !k)
  end

let bits = Int64.bits_of_float

let check_bits msg expect got =
  Alcotest.(check int) (msg ^ ": length") (Array.length expect)
    (Array.length got);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits got.(i))) then
        Alcotest.failf "%s: entry %d is %h, the oracle's is %h" msg i got.(i) x)
    expect

let check_point msg c ~init t =
  check_bits
    (Printf.sprintf "%s at t=%g" msg t)
    (fst (oracle c ~init t))
    (Ctmc.transient c ~init t)

let check_cumulative msg c ~init t =
  check_bits
    (Printf.sprintf "%s, cumulative at t=%g" msg t)
    (fst (cumulative_oracle c ~init t))
    (Ctmc.cumulative c ~init t)

let with_jobs n f =
  Pool.set_jobs ~clamp:false n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let shuffle r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Srng.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let unit_vector n i = Array.init n (fun j -> if j = i then 1.0 else 0.0)

let random_distribution r n =
  let v = Array.init n (fun _ -> Srng.float r) in
  let s = Array.fold_left ( +. ) 0.0 v in
  Array.map (fun x -> x /. s) v

(* a random chain, a start vector and eight times in [0, 2], shuffled *)
let case seed =
  let r = Srng.make seed in
  let c, init =
    if seed mod 2 = 0 then Gen.acyclic_ctmc r
    else
      let c = Gen.irreducible_ctmc r in
      (c, random_distribution r (Ctmc.n_states c))
  in
  let ts = 0.0 :: List.init 7 (fun _ -> Srng.log_range r 1e-3 2.0) in
  (c, init, shuffle r ts)

let test_random_chains () =
  for seed = 1 to 24 do
    let c, init, ts = case seed in
    List.iter (check_point (Printf.sprintf "seed %d" seed) c ~init) ts;
    (* again, now that the workspace holds the longest series *)
    List.iter (check_point (Printf.sprintf "seed %d, warm" seed) c ~init) ts
  done

(* [Ctmc.transient] mapped over a case's points at jobs=2: every point
   bit for bit the oracle, whatever the workspace held before it *)
let test_transient_many_jobs2 () =
  for seed = 1 to 8 do
    let c, init, ts = case seed in
    let got =
      with_jobs 2 (fun () -> List.map (fun t -> (t, Ctmc.transient c ~init t)) ts)
    in
    List.iter
      (fun (t, pi) ->
        check_bits
          (Printf.sprintf "seed %d, jobs=2, t=%g" seed t)
          (fst (oracle c ~init t)) pi)
      got
  done

(* cumulatives on cold and warm workspaces, alone and interleaved with
   transients on the same chain and start vector: neither kind of query
   may disturb the other *)
let test_cumulative () =
  for seed = 1 to 24 do
    let c, init, ts = case seed in
    let msg = Printf.sprintf "seed %d" seed in
    List.iter (check_cumulative msg c ~init) ts;
    (* transients after cumulatives, then cumulatives after transients *)
    List.iter
      (fun t ->
        check_point msg c ~init t;
        check_cumulative (msg ^ ", beside transients") c ~init (2.0 *. t);
        check_cumulative (msg ^ ", beside transients") c ~init (0.5 *. t))
      ts
  done

(* a 6-state ring with chords: it settles within a few hundred terms *)
let ring ?(chord = 0.5) () =
  Ctmc.make ~n:6
    (List.concat
       (List.init 6 (fun i ->
            [ (i, (i + 1) mod 6, 1.0 +. float_of_int i);
              (i, (i + 3) mod 6, chord) ])))

let test_rekey () =
  let a, init_a, ts_a = case 3 and b, init_b, ts_b = case 5 in
  let init_a' = random_distribution (Srng.make 99) (Ctmc.n_states a) in
  (* equal in value to [init_a] but not in bits (signed zeros): the
     workspace keys it as another series *)
  let init_a_neg0 = Array.map (fun x -> if x = 0.0 then -0.0 else x) init_a in
  List.iteri
    (fun i (ta, tb) ->
      check_point "chain A" a ~init:init_a ta;
      check_point "chain B" b ~init:init_b tb;
      check_point "chain A, second start" a ~init:init_a' tb;
      if i mod 2 = 0 then
        check_point "chain A, -0.0 start" a ~init:init_a_neg0 ta;
      check_point "chain A again" a ~init:init_a tb)
    (List.combine ts_a ts_b);
  (* two chains of one size from one start vector: only the matrix tells
     their series apart *)
  let r1 = ring () and r2 = ring ~chord:2.5 () in
  let init = unit_vector 6 0 in
  List.iter
    (fun t ->
      check_point "ring" r1 ~init t;
      check_point "ring, other chord rate" r2 ~init t)
    [ 0.5; 3.0; 1.0; 8.0; 0.2 ]

let test_settling_sides () =
  let c = ring () in
  let init = unit_vector 6 0 in
  let lambda, _ = Ctmc.uniformized_dtmc c in
  let settle = snd (oracle c ~init (2000.0 /. lambda)) in
  let mults = [ 0.1; 0.25; 0.5; 0.9; 1.0; 1.1; 2.0; 4.0 ] in
  let ts = List.map (fun m -> m *. float_of_int settle /. lambda) mults in
  let right t = (Poisson.window (lambda *. t)).Poisson.right in
  Alcotest.(check bool) "some window ends before the settling index" true
    (List.exists (fun t -> right t < settle) ts);
  Alcotest.(check bool) "some window runs past the settling index" true
    (List.exists (fun t -> right t > settle) ts);
  (* short windows first, then long, then short again *)
  List.iter (check_point "ring" c ~init) ts;
  List.iter (check_point "ring, reversed" c ~init) (List.rev ts)

(* --- through the SRN ladder ----------------------------------------- *)

let repairable_net () =
  let one _ = 1 in
  let no_guard _ = true in
  Net.build
    ~places:[ ("up", 3); ("dn", 0) ]
    ~transitions:
      [ { Net.t_name = "fl"; kind = Net.Timed;
          rate = (fun m -> 0.4 *. float_of_int m.(0));
          guard = no_guard; priority = 0;
          inputs = [ (0, one) ]; outputs = [ (1, one) ]; inhibitors = [] };
        { Net.t_name = "rp"; kind = Net.Timed; rate = (fun _ -> 1.0);
          guard = no_guard; priority = 0;
          inputs = [ (1, one) ]; outputs = [ (0, one) ]; inhibitors = [] } ]

let reward m = float_of_int m.(0)

(* The ladder with the oracle: rungs every 256 uniformization terms (the
   spacing Srn's ladder uses), each from the one before, then the
   remainder from the last rung below t; the reward summed as Srn does. *)
let oracle_exrt s t =
  let g = Srn.graph s in
  let c = Reach.ctmc g and init0 = Reach.initial_distribution g in
  let lambda, _ = Ctmc.uniformized_dtmc c in
  let delta = 256.0 /. lambda in
  let pi =
    if t <= delta then fst (oracle c ~init:init0 t)
    else begin
      let m = min (int_of_float (Float.ceil (t /. delta)) - 1) 100_000 in
      let cp = ref init0 in
      for _ = 1 to m do
        cp := fst (oracle c ~init:!cp delta)
      done;
      fst (oracle c ~init:!cp (t -. (float_of_int m *. delta)))
    end
  in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      if p <> 0.0 then acc := !acc +. (p *. reward (Reach.tangible_marking g i)))
    pi;
  !acc

let ladder_times s =
  let c = Reach.ctmc (Srn.graph s) in
  let lambda, _ = Ctmc.uniformized_dtmc c in
  let delta = 256.0 /. lambda in
  (* both sides of the first rungs, out of order *)
  List.map (fun m -> m *. delta) [ 2.5; 0.3; 1.0; 3.2; 0.9; 1.7; 2.0 ]

let check_reward msg expect got =
  if not (Int64.equal (bits expect) (bits got)) then
    Alcotest.failf "%s: %h, the oracle's is %h" msg got expect

let test_srn_exrt_ladder () =
  let s = Srn.solve (repairable_net ()) in
  List.iter
    (fun t ->
      check_reward (Printf.sprintf "exrt t=%g" t) (oracle_exrt s t)
        (Srn.exrt s (Srn.reward s reward) t))
    (ladder_times s)

let test_srn_exrt_many_jobs2 () =
  let s = Srn.solve (repairable_net ()) in
  let ts = ladder_times s in
  let got, records =
    Diag.capture (fun () -> with_jobs 2 (fun () -> Srn.exrt_many s reward ts))
  in
  List.iter
    (fun (t, x) ->
      check_reward (Printf.sprintf "exrt_many jobs=2 t=%g" t) (oracle_exrt s t) x)
    got;
  (* the same queries one by one, on a fresh instance *)
  let s' = Srn.solve (repairable_net ()) in
  let _, one_by_one = Diag.capture (fun () -> List.map (Srn.exrt s' (Srn.reward s' reward)) ts) in
  Alcotest.(check string) "exrt_many's records are those of exrt one by one"
    (Diag.records_to_json one_by_one) (Diag.records_to_json records)

(* Query order.  Ladder rungs are keyed by index, apart from the answers
   filed by time: a query whose t is a rung time bit for bit must neither
   read a rung an earlier query left (grid case) nor seed one a later
   query starts from (off-grid case).  On a two-place repairable net with
   failure rate [fl] and repair rate 1, each case asks one question on a
   fresh instance and again after another query; the bits must agree. *)
let repairable_fl fl =
  let one _ = 1 in
  let no_guard _ = true in
  Net.build
    ~places:[ ("up", 3); ("dn", 0) ]
    ~transitions:
      [ { Net.t_name = "fl"; kind = Net.Timed; rate = (fun _ -> fl);
          guard = no_guard; priority = 0;
          inputs = [ (0, one) ]; outputs = [ (1, one) ]; inhibitors = [] };
        { Net.t_name = "rp"; kind = Net.Timed; rate = (fun _ -> 1.0);
          guard = no_guard; priority = 0;
          inputs = [ (1, one) ]; outputs = [ (0, one) ]; inhibitors = [] } ]

let test_srn_exrt_query_order () =
  let grid_diffs = ref [] and off_grid_diffs = ref [] in
  List.iter
    (fun fl ->
      let net = repairable_fl fl in
      let s0 = Srn.solve net in
      let lambda, _ = Ctmc.uniformized_dtmc (Reach.ctmc (Srn.graph s0)) in
      (* rung j sits at [float_of_int j *. delta], as in Srn *)
      let delta = 256.0 /. lambda in
      let at j = float_of_int j *. delta in
      let exrt ?before t =
        let s = Srn.solve net in
        Option.iter (fun t' -> ignore (Srn.exrt s (Srn.reward s reward) t')) before;
        Srn.exrt s (Srn.reward s reward) t
      in
      for j = 2 to 9 do
        let case = Printf.sprintf "fl=%g j=%d" fl j in
        if bits (exrt (at j)) <> bits (exrt ~before:(at (j + 2)) (at j)) then
          grid_diffs := case :: !grid_diffs;
        let t = at (j + 2) +. 0.5 in
        if bits (exrt t) <> bits (exrt ~before:(at j) t) then
          off_grid_diffs := case :: !off_grid_diffs
      done)
    [ 2.5; 3.7; 0.3; 7.1; 1.9; 4.4 ];
  Alcotest.(check (list string))
    "grid-time queries of 48 that depend on a later query run first" []
    (List.rev !grid_diffs);
  Alcotest.(check (list string))
    "queries of 48 that depend on a grid-time query run first" []
    (List.rev !off_grid_diffs)

(* --- past the byte budget ------------------------------------------- *)

(* a birth-death chain that is far from settled after a few hundred
   terms, and long enough that a window of lambda t ~ 200 needs more
   iterates than the budget holds *)
let birth_death ?(up = 1.0) n =
  Ctmc.of_rows ~n (fun i emit ->
      if i < n - 1 then emit (i + 1) up;
      if i > 0 then emit (i - 1) 0.9)

let test_budget () =
  let n = 20_000 in
  let c = birth_death n in
  let init = unit_vector n 0 in
  let lambda, _ = Ctmc.uniformized_dtmc c in
  let t = 200.0 /. lambda in
  let slots = Ctmc.iterate_budget / (8 * n) in
  Alcotest.(check bool) "the window is longer than the budget holds" true
    ((Poisson.window (lambda *. t)).Poisson.right > slots);
  List.iter (check_point "birth-death" c ~init) [ t; 0.5 *. t; 1.2 *. t; t ];
  Alcotest.(check bool) "the cumulative series is longer than the budget holds" true
    (snd (cumulative_oracle c ~init t) > slots);
  List.iter (check_cumulative "birth-death" c ~init) [ t; 0.5 *. t ];
  with_jobs 2 (fun () -> check_cumulative "birth-death, jobs=2" c ~init t);
  (* a series from a dense start, then one from state 0 again: the
     second rewrites slots the first left nonzero past its own bounds,
     where the rows inside them read *)
  let dense = random_distribution (Srng.make 5) n in
  List.iter (check_point "birth-death, dense start" c ~init:dense) [ t; 0.5 *. t ];
  List.iter (check_point "birth-death, from state 0 again" c ~init) [ 0.5 *. t; t ];
  let bytes = Ctmc.workspace_bytes () in
  Alcotest.(check bool)
    (Printf.sprintf "workspace %d bytes within the %d-byte budget" bytes
       Ctmc.iterate_budget)
    true
    (bytes > 0 && bytes <= Ctmc.iterate_budget)

(* --- a query cut short by a deadline -------------------------------- *)

let test_after_timeout () =
  let n = 20_000 in
  (* mass on every state, so a multiply cut between its row ranges leaves
     rows that differ from the finished product *)
  let init = random_distribution (Srng.make 17) n in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          List.iter
            (fun timeout ->
              let msg = Printf.sprintf "jobs=%d, after a %gs timeout" jobs timeout in
              (* a fresh chain, so the cut lands while the workspace is
                 still filling, over slots that held another series *)
              let c = birth_death ~up:(1.0 +. timeout +. float_of_int jobs) n in
              let lambda, _ = Ctmc.uniformized_dtmc c in
              (* a series of ~50 000 terms: far beyond the timeout.  At
                 jobs=2 each multiply splits into row ranges that re-check
                 the deadline, so the cut can land inside a multiply. *)
              (match
                 Deadline.with_timeout timeout (fun () ->
                     Ctmc.transient c ~init (50_000.0 /. lambda))
               with
              | _ -> Alcotest.fail "the long series finished inside its timeout"
              | exception Deadline.Timed_out -> ());
              List.iter
                (fun lt -> check_point msg c ~init (lt /. lambda))
                [ 40.0; 150.0; 300.0 ])
            [ 0.001; 0.002; 0.003; 0.005; 0.01; 0.05 ]))
    [ 1; 2 ]

(* --- support bounds ---------------------------------------------------- *)

(* one past the last nonzero of [v] *)
let support v =
  let h = ref (Array.length v) in
  while !h > 0 && v.(!h - 1) = 0.0 do
    decr h
  done;
  !h

(* [f] at jobs=2 with every product split across the pool, however few
   its nonzeros; the floor is restored afterwards *)
let with_par_products f =
  let floor = Sparse.par_min_nnz () in
  Sparse.set_par_min_nnz 0;
  Fun.protect
    ~finally:(fun () -> Sparse.set_par_min_nnz floor)
    (fun () -> with_jobs 2 f)

(* The start vectors a support bound meets, in an order that makes the
   workspace reuse slots across them: a dense start (bounds n from the
   first term), then a point mass on the first state (bounds growing
   from 1, over slots holding the dense series), a point mass on the
   last state (bound n at once), a start holding -0.0 entries both below
   and past its last nonzero, and the first point mass again. *)
let starts r n =
  let neg0 =
    Array.init n (fun i -> if i = 0 || i = n / 2 then 0.5 else -0.0)
  in
  [ ("dense start", random_distribution r n);
    ("point mass on state 0", unit_vector n 0);
    ("point mass on the last state", unit_vector n (n - 1));
    ("-0.0 entries", neg0);
    ("point mass on state 0, again", unit_vector n 0) ]

let check_gen_chains what =
  for seed = 1 to 24 do
    let r = Srng.make (1000 + seed) in
    let c =
      if seed mod 2 = 0 then fst (Gen.acyclic_ctmc r) else Gen.irreducible_ctmc r
    in
    let ts = shuffle r (List.init 6 (fun _ -> Srng.log_range r 1e-3 4.0)) in
    List.iter
      (fun (start, init) ->
        let msg = Printf.sprintf "%sseed %d, %s" what seed start in
        List.iter
          (fun t ->
            check_point msg c ~init t;
            check_cumulative msg c ~init t)
          ts)
      (starts r (Ctmc.n_states c))
  done

let test_gen_starts () = check_gen_chains ""

(* wfs(500): 1002 tangible markings numbered breadth-first from the
   initial one, so a series from it spreads over a prefix of the rows *)
let wfs_chain c =
  let g = Reach.build (Test_assembly.wfs c) in
  (Reach.ctmc g, Reach.initial_distribution g)

let wfs_times r = shuffle r (20.0 :: List.init 10 (fun i -> float_of_int (i + 1)))

let check_wfs what =
  let r = Srng.make 30 in
  List.iter
    (fun cov ->
      let c, init = wfs_chain cov in
      let n = Ctmc.n_states c in
      let msg = Printf.sprintf "%swfs(500) at c = %g" what cov in
      Alcotest.(check bool)
        (msg ^ ": pi(1) is zero on a tail of the rows") true
        (support (fst (oracle c ~init 1.0)) < n);
      List.iter (check_point msg c ~init) (wfs_times r);
      List.iter (check_point (msg ^ ", again") c ~init) (wfs_times r);
      List.iter (check_cumulative msg c ~init) [ 3.0; 1.0; 20.0 ])
    [ 0.7; 0.93 ]

let test_wfs () = check_wfs ""

let test_wfs_ladder () =
  let s = Srn.solve (Test_assembly.wfs 0.93) in
  List.iter
    (fun t ->
      check_reward (Printf.sprintf "wfs exrt t=%g" t) (oracle_exrt s t)
        (Srn.exrt s (Srn.reward s reward) t))
    (ladder_times s)

let test_bounds_par () =
  with_par_products (fun () ->
      check_gen_chains "jobs=2, every product split: ";
      check_wfs "jobs=2, every product split: ")

(* The bound itself, and the prefix product, on random nonnegative
   sparse matrices: for every h and a v zero from row h on, t v is +0.0
   from row reach.(h) on, the row just below it holds an entry in a
   column below h, and the prefix product over rows [0, h') writes the
   full product's bits there and nothing past h', at jobs 1 and 2. *)
let nonneg_arb =
  QCheck.make
    ~print:(fun (t, _) -> Format.asprintf "%a" Sparse.pp t)
    (fun st ->
      let rows = QCheck.Gen.int_range 1 30 st and cols = QCheck.Gen.int_range 1 30 st in
      let density = QCheck.Gen.float_range 0.0 0.4 st in
      let t =
        Sparse.of_rows ~rows ~cols (fun _ emit ->
            for j = 0 to cols - 1 do
              if QCheck.Gen.float_bound_inclusive 1.0 st < density then
                emit j (QCheck.Gen.float_range 0.01 2.0 st)
            done)
      in
      (t, QCheck.Gen.int st))

let prefix_product_ok (t, seed) =
  let rows = Sparse.rows t and cols = Sparse.cols t in
  let r = Srng.make seed in
  let reach = Sparse.prefix_reach t in
  let rp, ci, _ = Sparse.raw t in
  let ok = ref (Array.length reach = cols + 1 && reach.(0) = 0) in
  for h = 0 to cols do
    if h > 0 && reach.(h) < reach.(h - 1) then ok := false;
    if reach.(h) > rows then ok := false;
    (* tight: row reach.(h) - 1 holds an entry in a column below h *)
    if reach.(h) > 0 then begin
      let i = reach.(h) - 1 in
      let hit = ref false in
      for k = rp.(i) to rp.(i + 1) - 1 do
        if ci.(k) < h then hit := true
      done;
      if not !hit then ok := false
    end;
    let v =
      Array.init cols (fun j ->
          if j >= h then if Srng.int r 2 = 0 then -0.0 else 0.0
          else if Srng.int r 5 = 0 then 0.0
          else Srng.range r (-1.0) 1.0)
    in
    let full = Sparse.mat_vec t v in
    for i = reach.(h) to rows - 1 do
      if not (Int64.equal (bits full.(i)) (bits 0.0)) then ok := false
    done;
    let prefixes () =
      List.init (rows + 1) (fun h' ->
          let out = Array.make rows nan in
          Sparse.par_mat_vec_prefix_into t h' v out;
          (h', out))
    in
    List.iter
      (fun (h', out) ->
        Array.iteri
          (fun i x ->
            let want = if i < h' then full.(i) else nan in
            if not (Int64.equal (bits x) (bits want)) then ok := false)
          out)
      (prefixes () @ with_par_products prefixes)
  done;
  !ok

let prop_prefix_product =
  QCheck.Test.make ~name:"prefix reach bounds the product, prefix product = mat_vec"
    ~count:200 nonneg_arb prefix_product_ok

let test_prefix_shape () =
  let t = Sparse.of_rows ~rows:3 ~cols:2 (fun i emit -> emit (i mod 2) 1.0) in
  let raises what f =
    match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  let v = [| 1.0; 2.0 |] and out = Array.make 3 0.0 in
  raises "h = -1" (fun () -> Sparse.par_mat_vec_prefix_into t (-1) v out);
  raises "h = rows + 1" (fun () -> Sparse.par_mat_vec_prefix_into t 4 v out);
  raises "v too short" (fun () -> Sparse.par_mat_vec_prefix_into t 2 [| 1.0 |] out);
  raises "out too short" (fun () ->
      Sparse.par_mat_vec_prefix_into t 2 v (Array.make 2 0.0));
  raises "v of rows entries" (fun () ->
      Sparse.par_mat_vec_prefix_into t 2 (Array.make 3 0.0) out);
  Sparse.par_mat_vec_prefix_into t 3 v out;
  check_bits "h = rows" (Sparse.mat_vec t v) out

let suite =
  [ Alcotest.test_case "random chains, shuffled times" `Quick
      test_random_chains;
    Alcotest.test_case "transient_many at jobs=2" `Quick
      test_transient_many_jobs2;
    Alcotest.test_case "cumulative beside transients" `Quick test_cumulative;
    Alcotest.test_case "second chain and start vector re-key" `Quick
      test_rekey;
    Alcotest.test_case "both sides of the settling index" `Quick
      test_settling_sides;
    Alcotest.test_case "Srn.exrt past the ladder spacing" `Quick
      test_srn_exrt_ladder;
    Alcotest.test_case "Srn.exrt_many at jobs=2" `Quick
      test_srn_exrt_many_jobs2;
    Alcotest.test_case "Srn.exrt independent of query order" `Quick
      test_srn_exrt_query_order;
    Alcotest.test_case "window past the byte budget" `Quick test_budget;
    Alcotest.test_case "query after a Timed_out query" `Quick
      test_after_timeout;
    Alcotest.test_case "support bounds: Gen chains, five starts" `Quick
      test_gen_starts;
    Alcotest.test_case "support bounds: wfs(500), shuffled times" `Quick
      test_wfs;
    Alcotest.test_case "support bounds: wfs(500) past the ladder spacing"
      `Quick test_wfs_ladder;
    Alcotest.test_case "support bounds at jobs=2, every product split"
      `Quick test_bounds_par;
    QCheck_alcotest.to_alcotest ~verbose:false prop_prefix_product;
    Alcotest.test_case "prefix product shape errors" `Quick test_prefix_shape ]
