open Sharpe_numerics

(* The reachability SKELETON is the parameter-independent part of the
   analysis: the marking set, the tangible/vanishing partition, and the
   successor graph labelled with the firing transition's index.  It is
   determined entirely by net structure (places, arcs, cardinalities,
   guards, priorities, initial marking) and never by rate or weight
   values, so a sweep that only re-binds rates can re-weight a cached
   skeleton instead of re-exploring the state space.  The one exception
   is a rate of 0: exploration leaves a timed transition out where its
   rate is not positive, and [sk_zero_rated] records where it did so that
   [fits] can tell when the current rates would explore differently. *)
type skeleton = {
  sk_markings : Net.marking array;
  sk_vanishing : bool array;
  sk_succs : (int * int) array array;
      (* per marking: (target marking, firing transition index) *)
  sk_zero_rated : (int * int) array;
      (* (marking, transition) pairs left out only for a rate that is not
         positive, in exploration order (see [Net.enabled_and_zero_rated]) *)
}

type t = {
  net : Net.t;
  skel : skeleton;
  tangibles : Net.marking array;
  nv : int; (* number of vanishing markings eliminated *)
  ctmc : Sharpe_markov.Ctmc.t;
  init : float array;
}

let net g = g.net
let skeleton_of g = g.skel
let n_markings sk = Array.length sk.sk_markings
let n_tangible g = Array.length g.tangibles
let tangible_marking g i = Array.copy g.tangibles.(i)
let ctmc g = g.ctmc
let initial_distribution g = Array.copy g.init

(* Resource-limit and malformed-net failures surface as a structured
   Diag error BEFORE the exception, so a daemon or batch run that
   recovers from the exception still reports the cause through
   [--diagnostics]; the exception message carries the same text for
   direct callers. *)
let limit_error fmt =
  Printf.ksprintf
    (fun msg ->
      Diag.emit Diag.Error ~solver:"reach" msg;
      failwith ("Reach: " ^ msg))
    fmt

module MarkingTbl = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Net.hash_marking
end)

(* One marking's edge weights in successor order *)
let weigh_row trans out m =
  let row = Array.create_float (Array.length out) in
  for k = 0 to Array.length out - 1 do
    row.(k) <- trans.(snd out.(k)).Net.rate m
  done;
  row

(* An array that grows by doubling, filled in index order *)
type 'a column = { mutable cells : 'a array; mutable len : int }

let column () = { cells = [||]; len = 0 }

let push c x =
  if c.len = Array.length c.cells then begin
    let cells = Array.make (max 16 (2 * c.len)) x in
    Array.blit c.cells 0 cells 0 c.len;
    c.cells <- cells
  end;
  c.cells.(c.len) <- x;
  c.len <- c.len + 1

let contents c = Array.sub c.cells 0 c.len

(* The skeleton and its edge weights, each closure evaluated once: a
   timed edge's weight is the rate [Net.enabled_and_zero_rated] found
   positive while exploring, and the immediate weights are evaluated
   after exploration, in marking order, as [edge_weights] evaluates
   them.  A marking's edges are all timed or all immediate: one enabled
   immediate transition excludes every timed one.  Markings are numbered
   in order of discovery and expanded in that order (breadth first), so
   each per-marking column is filled in index order and holds one word
   per marking: the weight rows then add their own size to exploration's
   peak memory and little more. *)
let explore ?(max_markings = 200_000) n =
  let ids = MarkingTbl.create 1024 in
  let markings = column () in
  let intern m =
    match MarkingTbl.find_opt ids m with
    | Some i -> i
    | None ->
        if markings.len >= max_markings then
          limit_error "reachability set exceeds the marking limit (%d)"
            max_markings;
        let i = markings.len in
        MarkingTbl.add ids m i;
        push markings m;
        i
  in
  ignore (intern (Net.initial_marking n));
  let trans = Net.transitions n in
  let succs = column () and w = column () and vans = column () and zeros = ref [] in
  while succs.len < markings.len do
    Deadline.check ();
    let i = succs.len in
    let m = markings.cells.(i) in
    let en, zero = Net.enabled_and_zero_rated n m in
    if zero <> [] then List.iter (fun ti -> zeros := (i, ti) :: !zeros) zero;
    (* after the priority rule an enabled immediate transition excludes
       every timed one, so one immediate in [en] makes [m] vanishing *)
    let vanishing = List.exists (fun (ti, _) -> trans.(ti).Net.kind = Net.Immediate) en in
    let out = List.map (fun (ti, _) -> (intern (Net.fire n ti m), ti)) en in
    let rates = Array.create_float (if vanishing then 0 else List.length en) in
    if not vanishing then List.iteri (fun k (_, r) -> rates.(k) <- r) en;
    push succs (Array.of_list out);
    push w rates;
    push vans vanishing
  done;
  let markings = contents markings and succs = contents succs in
  let w = contents w and vans = contents vans in
  Array.iteri (fun i v -> if v then w.(i) <- weigh_row trans succs.(i) markings.(i)) vans;
  ( { sk_markings = markings; sk_vanishing = vans; sk_succs = succs;
      sk_zero_rated = Array.of_list (List.rev !zeros) },
    w )

let explore_skeleton ?max_markings n = fst (explore ?max_markings n)

(* The current rate/weight of every skeleton edge: the cheap,
   parameter-dependent half of exploration, and the only place a rate
   closure is evaluated when solving from a skeleton. *)
let edge_weights n sk =
  let trans = Net.transitions n in
  (* filled in place rather than by [Array.mapi]: seeding an array longer
     than 256 fields with a freshly allocated row forces a minor
     collection, a stop-the-world pause on every domain, per call *)
  let w = Array.make (Array.length sk.sk_succs) [||] in
  for i = 0 to Array.length w - 1 do
    w.(i) <- weigh_row trans sk.sk_succs.(i) sk.sk_markings.(i)
  done;
  w

(* Exploration under the current rates would rebuild [sk] exactly when
   every timed edge still has a positive rate and every transition left
   out for a rate that was not positive still has none: the enabled set
   of each marking, and with it every successor list, is then the same. *)
let fits n sk w =
  let trans = Net.transitions n in
  let ok = ref true in
  Array.iteri
    (fun i out ->
      let wi = w.(i) in
      for k = 0 to Array.length out - 1 do
        if trans.(snd out.(k)).Net.kind = Net.Timed && not (wi.(k) > 0.0) then
          ok := false
      done)
    sk.sk_succs;
  !ok
  && Array.for_all
       (fun (i, ti) -> not (trans.(ti).Net.rate sk.sk_markings.(i) > 0.0))
       sk.sk_zero_rated

type mass = { mutable p : float }

(* absorption distributions of vanishing markings over tangible markings *)
let vanishing_absorption sk w tangible_id =
  let n = Array.length sk.sk_markings in
  let total v = Array.fold_left ( +. ) 0.0 w.(v) in
  let memo : (int * float) list option array = Array.make n None in
  let on_stack = Array.make n false in
  let cyclic = ref false in
  (* First try the common case: the vanishing subgraph is acyclic. *)
  let rec solve v =
    match memo.(v) with
    | Some d -> d
    | None ->
        if on_stack.(v) then begin
          cyclic := true;
          []
        end
        else begin
          on_stack.(v) <- true;
          let total = total v in
          if total <= 0.0 then
            limit_error "vanishing marking %d has no enabled weight" v;
          (* one mutable cell per tangible target, updated in place; a
             first sighting is seeded [+. 0.0] and inserted at the same
             bucket position [Hashtbl.replace] would use, so the fold
             below lists the same pairs in the same order *)
          let acc = Hashtbl.create 8 in
          let add t x =
            match Hashtbl.find_opt acc t with
            | Some cell -> cell.p <- x +. cell.p
            | None -> Hashtbl.add acc t { p = x +. 0.0 }
          in
          Array.iteri
            (fun k (dst, _) ->
              let p = w.(v).(k) /. total in
              if sk.sk_vanishing.(dst) then
                List.iter (fun (t, q) -> add t (p *. q)) (solve dst)
              else add tangible_id.(dst) p)
            sk.sk_succs.(v);
          on_stack.(v) <- false;
          let d = Hashtbl.fold (fun t cell l -> (t, cell.p) :: l) acc [] in
          memo.(v) <- Some d;
          d
        end
  in
  let vanishing_ids =
    List.filter (fun i -> sk.sk_vanishing.(i)) (List.init n Fun.id)
  in
  List.iter (fun v -> ignore (solve v)) vanishing_ids;
  if not !cyclic then fun v -> Option.get memo.(v)
  else begin
    (* general case: solve (I - P_VV) X = P_VT by dense elimination *)
    let vs = Array.of_list vanishing_ids in
    let nv = Array.length vs in
    if nv > 1500 then
      limit_error "vanishing loop of %d markings too large for direct solve (limit 1500)"
        nv;
    let vidx = Hashtbl.create 64 in
    Array.iteri (fun k v -> Hashtbl.add vidx v k) vs;
    let a = Matrix.identity nv in
    let bt = Hashtbl.create 64 in
    (* bt : (v-index, tangible) -> prob *)
    Array.iteri
      (fun k v ->
        let total = total v in
        Array.iteri
          (fun e (dst, _) ->
            let p = w.(v).(e) /. total in
            if sk.sk_vanishing.(dst) then
              Matrix.add_to a k (Hashtbl.find vidx dst) (-.p)
            else begin
              let key = (k, tangible_id.(dst)) in
              Hashtbl.replace bt key (p +. Option.value ~default:0.0 (Hashtbl.find_opt bt key))
            end)
          sk.sk_succs.(v))
      vs;
    (* collect tangible columns present, numbered in iteration order *)
    let cols = Hashtbl.create 64 in
    Hashtbl.iter (fun (_, t) _ -> Hashtbl.replace cols t ()) bt;
    let order = Hashtbl.fold (fun t () l -> t :: l) cols [] |> List.rev |> Array.of_list in
    let m = Array.length order in
    let col = Hashtbl.create m in
    Array.iteri (fun c t -> Hashtbl.replace col t c) order;
    let b = Matrix.create ~rows:nv ~cols:m in
    Hashtbl.iter (fun (k, t) p -> Matrix.add_to b k (Hashtbl.find col t) p) bt;
    (* one elimination for every column; [sol] is filled column by column
       in the order above *)
    let x = Linsolve.gauss_matrix a b in
    let sol = Hashtbl.create 64 in
    Array.iteri
      (fun c t ->
        for k = 0 to nv - 1 do
          let p = Matrix.get x k c in
          if Float.abs p > 1e-15 then Hashtbl.add sol (vs.(k), t) p
        done)
      order;
    (* each marking's pairs, prepended in [sol]'s fold order *)
    let by_marking = Array.make n [] in
    Hashtbl.iter (fun (v, t) p -> by_marking.(v) <- (t, p) :: by_marking.(v)) sol;
    fun v -> by_marking.(v)
  end

let build ?max_markings ?skeleton ?weights n =
  let sk, w =
    match (skeleton, weights) with
    | None, _ -> explore ?max_markings n
    | Some sk, None -> (sk, edge_weights n sk)
    | Some sk, Some w ->
        if
          Array.length w <> Array.length sk.sk_succs
          || not (Array.for_all2 (fun wr out -> Array.length wr = Array.length out) w sk.sk_succs)
        then invalid_arg "Reach.build: weights do not match the skeleton";
        (sk, w)
  in
  let vanishing = sk.sk_vanishing in
  let nmk = Array.length sk.sk_markings in
  let tangible_id = Array.make nmk (-1) and nt = ref 0 in
  for i = 0 to nmk - 1 do
    if not vanishing.(i) then begin
      tangible_id.(i) <- !nt;
      incr nt
    end
  done;
  let tangible_of = Array.make !nt 0 in
  Array.iteri (fun i t -> if t >= 0 then tangible_of.(t) <- i) tangible_id;
  let tangibles = Array.map (Array.get sk.sk_markings) tangible_of in
  let absorb = vanishing_absorption sk w tangible_id in
  (* The chain sums each exit rate, and each cell's duplicates, in
     emission order.  Rows are emitted last edge first and absorption
     lists last entry first: the order that keeps exit rates bit-identical
     to earlier releases, so Krylov iteration counts and residuals on
     large nets do not move. *)
  let nnz =
    Array.fold_left (fun acc i -> acc + 1 + Array.length sk.sk_succs.(i)) 0 tangible_of
  in
  let ctmc =
    Sharpe_markov.Ctmc.of_rows ~nnz ~n:!nt (fun src emit ->
        let i = tangible_of.(src) in
        let out = sk.sk_succs.(i) and wi = w.(i) in
        for k = Array.length out - 1 downto 0 do
          let dst, _ = out.(k) and r = wi.(k) in
          if vanishing.(dst) then
            List.fold_right
              (fun (t, p) () -> if t <> src then emit t (r *. p))
              (absorb dst) ()
          else begin
            let d = tangible_id.(dst) in
            if d <> src then emit d r
          end
        done)
  in
  let init = Array.make !nt 0.0 in
  if vanishing.(0) then
    List.iter (fun (t, p) -> init.(t) <- init.(t) +. p) (absorb 0)
  else init.(tangible_id.(0)) <- 1.0;
  { net = n; skel = sk; tangibles; nv = nmk - !nt; ctmc; init }

let n_vanishing g = g.nv
