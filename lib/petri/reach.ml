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

let explore_skeleton ?(max_markings = 200_000) n =
  let ids = MarkingTbl.create 1024 in
  let rev = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let intern m =
    match MarkingTbl.find_opt ids m with
    | Some i -> i
    | None ->
        if !count >= max_markings then
          limit_error "reachability set exceeds the marking limit (%d)"
            max_markings;
        let i = !count in
        incr count;
        MarkingTbl.add ids m i;
        rev := m :: !rev;
        Queue.add (i, m) queue;
        i
  in
  let m0 = Net.initial_marking n in
  ignore (intern m0);
  let trans = Net.transitions n in
  let succs = ref [] and vans = ref [] and zeros = ref [] in
  while not (Queue.is_empty queue) do
    Deadline.check ();
    let i, m = Queue.pop queue in
    let en, zero = Net.enabled_and_zero_rated n m in
    if zero <> [] then List.iter (fun ti -> zeros := (i, ti) :: !zeros) zero;
    (* after the priority rule an enabled immediate transition excludes
       every timed one, so one immediate in [en] makes [m] vanishing *)
    let vanishing = List.exists (fun ti -> trans.(ti).Net.kind = Net.Immediate) en in
    let out = List.map (fun ti -> (intern (Net.fire n ti m), ti)) en in
    succs := (i, Array.of_list out) :: !succs;
    vans := (i, vanishing) :: !vans
  done;
  let nmk = !count in
  let markings = Array.make nmk [||] in
  List.iteri (fun k m -> markings.(nmk - 1 - k) <- m) !rev;
  let succ_arr = Array.make nmk [||] in
  List.iter (fun (i, s) -> succ_arr.(i) <- s) !succs;
  let van_arr = Array.make nmk false in
  List.iter (fun (i, v) -> van_arr.(i) <- v) !vans;
  { sk_markings = markings; sk_vanishing = van_arr; sk_succs = succ_arr;
    sk_zero_rated = Array.of_list (List.rev !zeros) }

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
    let out = sk.sk_succs.(i) and m = sk.sk_markings.(i) in
    let row = Array.create_float (Array.length out) in
    for k = 0 to Array.length out - 1 do
      row.(k) <- trans.(snd out.(k)).Net.rate m
    done;
    w.(i) <- row
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
  let sk =
    match skeleton with
    | Some sk -> sk
    | None -> explore_skeleton ?max_markings n
  in
  let w =
    match weights with
    | None -> edge_weights n sk
    | Some w ->
        if
          Array.length w <> Array.length sk.sk_succs
          || not (Array.for_all2 (fun wr out -> Array.length wr = Array.length out) w sk.sk_succs)
        then invalid_arg "Reach.build: weights do not match the skeleton";
        w
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
