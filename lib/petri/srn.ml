module Ctmc = Sharpe_markov.Ctmc
module Linsolve = Sharpe_numerics.Linsolve

type t = {
  g : Reach.t;
  markings : Net.marking array;
  mutable steady : float array option; (* cached *)
  transients : (float, float array) Hashtbl.t; (* t -> pi(t) *)
  rungs : (int, float array) Hashtbl.t; (* j -> ladder rung pi(j*delta) *)
  cumulatives : (float, float array) Hashtbl.t; (* t -> L(t) *)
}

let solve ?max_markings ?skeleton ?weights n =
  let g = Reach.build ?max_markings ?skeleton ?weights n in
  (* filled in place: [Array.init] seeded with a fresh copy would force a
     minor collection on every domain for any net past 256 markings *)
  let markings = Array.make (Reach.n_tangible g) [||] in
  for i = 0 to Array.length markings - 1 do
    markings.(i) <- Reach.tangible_marking g i
  done;
  { g; markings; steady = None;
    transients = Hashtbl.create 16; rungs = Hashtbl.create 16;
    cumulatives = Hashtbl.create 16 }

let graph s = s.g
let skeleton_of s = Reach.skeleton_of s.g
let net s = Reach.net s.g

let steady s =
  match s.steady with
  | Some pi -> pi
  | None ->
      let c = Reach.ctmc s.g in
      let pi =
        (* absorbing chains have no steady state in the irreducible sense;
           use the limiting distribution via absorption if needed *)
        if Ctmc.partly_absorbing c then begin
          let init = Reach.initial_distribution s.g in
          (* a failed absorption solve falls back; a cancellation
             ([Deadline.Timed_out]) unwinds *)
          try Ctmc.absorption_probs c ~init
          with Linsolve.Singular | Failure _ | Invalid_argument _ ->
            Linsolve.ctmc_steady_state (Ctmc.generator c)
        end
        else Linsolve.ctmc_steady_state (Ctmc.generator c)
      in
      s.steady <- Some pi;
      pi

(* A reward function's values at the tangible markings, filled one
   marking at a time as the measures ask: a marking is filled only once
   its evaluation has returned. *)
type reward = {
  f : Net.marking -> float;
  values : float array;
  filled : Bytes.t; (* '\001' at each filled marking *)
}

let reward s f =
  let n = Array.length s.markings in
  { f; values = Array.create_float n; filled = Bytes.make n '\000' }

let with_function r f = { r with f }

let value s r i =
  if Bytes.get r.filled i <> '\000' then r.values.(i)
  else begin
    let v = r.f s.markings.(i) in
    r.values.(i) <- v;
    Bytes.set r.filled i '\001';
    v
  end

let weighted s pi r =
  let acc = ref 0.0 in
  Array.iteri (fun i p -> if p <> 0.0 then acc := !acc +. (p *. value s r i)) pi;
  !acc

let exrss s r = weighted s (steady s) r

(* Transient solves use a canonical checkpoint ladder: pi at grid times
   j*delta (delta sized so one rung costs ~256 uniformization terms) is
   built recursively via the semigroup property pi(t+d) = pi(t) e^(Qd),
   and a query advances from its grid predecessor.  A time sweep
   t, 2t, ..., nt therefore costs O(lambda n t) total terms instead of
   O(lambda n^2 t).

   Memory is bounded: instead of retaining every rung (up to 100,000
   probability vectors on long horizons), only every [stride]-th rung is
   stored, with stride sized so one query retains at most
   [ladder_budget] checkpoint vectors; the gap rungs are recomputed
   forward from the last retained checkpoint on the next query.  Rung j
   is always transient(rung (j-1), delta), whatever subset happens to be
   resident, and the ladder grid is a function of the chain and t alone —
   never of query order.  Rungs live in their own table, keyed by index,
   so a query whose t is a rung time bit for bit neither reads nor seeds
   a rung.  Thinned and unthinned ladders, parallel and serial sweeps,
   cached and uncached runs, and queries in any order all produce
   bit-identical values.

   Every [Ctmc.transient] below reads its iterates rung·P^k from the
   calling domain's iterate workspace, keyed by the chain's uniformized
   matrix and the bits of the start vector and holding at most
   [Ctmc.iterate_budget] bytes (32 MiB).  Rung j+1 and the remainders of
   all queries between rungs j and j+1 start from the same rung j, so
   they share one series, and the queries below the first rung share
   the series from the initial distribution.  A resident iterate is the
   same product whichever query or domain computed it, so the workspace
   changes the number of multiplies, never a value: the ladder stays
   canonical.  Each multiply pays only for the rows its series can have
   reached (Ctmc's support bound): the queries below the first rung
   start from the initial marking and spread over a prefix of the
   breadth-first state order, and a later rung's series starts from the
   prefix the earlier ones reached.  The bound moves no bit, so it
   leaves the grid and the rungs as they are.  The budget was sized on
   atm.sharpe (26 244 tangible markings, so 159 resident iterates at
   32 MiB).  Medians of 7 runs of the whole file on a 2-vCPU Xeon host:
   6.70 s with no workspace, 6.70 s at 8 MiB, 6.06 s at 16 MiB, 5.23 s
   at 32 MiB, and 4.50 s with no budget, which holds 379 iterates
   (79.6 MB). *)
let ladder_chunk = 256.0
let ladder_budget = 64

let transient_at s t =
  match Hashtbl.find_opt s.transients t with
  | Some pi -> pi
  | None ->
      let c = Reach.ctmc s.g in
      let init0 = Reach.initial_distribution s.g in
      let lambda, _ = Ctmc.uniformized c in
      let delta = ladder_chunk /. lambda in
      let pi =
        if (not (Float.is_finite delta)) || delta <= 0.0 || t <= delta then
          Ctmc.transient c ~init:init0 t
        else begin
          (* largest grid index with m*delta < t, ladder length bounded *)
          let m = min (int_of_float (Float.ceil (t /. delta)) - 1) 100_000 in
          let stride = 1 + ((m - 1) / ladder_budget) in
          (* skip ahead to the highest resident rung <= m ... *)
          let start = ref 0 and cp = ref init0 in
          for j = 1 to m do
            match Hashtbl.find_opt s.rungs j with
            | Some v ->
                start := j;
                cp := v
            | None -> ()
          done;
          (* ... and recompute forward, retaining every stride-th rung *)
          for j = !start + 1 to m do
            let v = Ctmc.transient c ~init:!cp delta in
            if j mod stride = 0 then Hashtbl.replace s.rungs j v;
            cp := v
          done;
          Ctmc.transient c ~init:!cp (t -. (float_of_int m *. delta))
        end
      in
      Hashtbl.replace s.transients t pi;
      pi

let cumulative_at s t =
  match Hashtbl.find_opt s.cumulatives t with
  | Some l -> l
  | None ->
      let c = Reach.ctmc s.g in
      let l = Ctmc.cumulative c ~init:(Reach.initial_distribution s.g) t in
      Hashtbl.replace s.cumulatives t l;
      l

let exrt s r t = weighted s (transient_at s t) r

let exrt_many s f ts =
  let r = reward s f in
  List.map (fun t -> (t, exrt s r t)) ts

let cexrt s r t = weighted s (cumulative_at s t) r

let ave_cexrt s r t = if t = 0.0 then 0.0 else cexrt s r t /. t

let mtta s =
  Ctmc.mtta (Reach.ctmc s.g) ~init:(Reach.initial_distribution s.g)

let cexrinf s r =
  let c = Reach.ctmc s.g in
  Ctmc.reward_until_absorption c ~init:(Reach.initial_distribution s.g)
    ~reward:(value s r)

let steady_of s f = exrss s (reward s f)
let tput s trans = steady_of s (fun m -> Net.rate_in (net s) m trans)

let util s trans =
  steady_of s (fun m -> if Net.enabled_named (net s) m trans then 1.0 else 0.0)

let etok s place =
  let i = Net.place_index (net s) place in
  steady_of s (fun m -> float_of_int m.(i))

let prempty s place =
  let i = Net.place_index (net s) place in
  steady_of s (fun m -> if m.(i) = 0 then 1.0 else 0.0)
