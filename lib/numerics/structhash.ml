(* Memo tables for the solve caches.

   A key is a plain value, the structure itself, hashed by [Hashtbl.hash]
   and compared by [compare]: never a digest, whose collision would
   silently return the wrong cached solve.  [compare] counts [0.] and
   [-0.] equal, and every NaN equal to every other, so a key carries a
   float whose sign or payload matters as its bit pattern.

   Tables are domain-local (via [Domain.DLS]) so cached values that
   contain mutable state — BDD managers, reachability skeletons, solver
   workspaces — are never shared between domains of the parallel pool.
   Hit/miss counters are global atomics so [stats] and [report] see the
   whole program's behaviour regardless of which domain did the work. *)

(* --- memo tables with shared statistics -------------------------------- *)

let enabled_flag = Atomic.make true
let set_enabled v = Atomic.set enabled_flag v
let enabled () = Atomic.get enabled_flag

(* Bumping the generation lazily invalidates every domain's table on its
   next access; DLS state of other domains cannot be touched directly. *)
let generation = Atomic.make 0
let clear_all () = Atomic.incr generation

type stat = { name : string; hits : int; misses : int }

let registry : (string * int Atomic.t * int Atomic.t) list ref = ref []
let registry_mutex = Mutex.create ()

let stats () =
  Mutex.protect registry_mutex (fun () ->
      List.rev_map
        (fun (name, h, m) ->
          { name; hits = Atomic.get h; misses = Atomic.get m })
        !registry)

let reset_stats () =
  Mutex.protect registry_mutex (fun () ->
      List.iter
        (fun (_, h, m) ->
          Atomic.set h 0;
          Atomic.set m 0)
        !registry)

let report () =
  List.iter
    (fun s ->
      if s.hits + s.misses > 0 then
        Diag.emitf Diag.Info ~solver:"solve_cache" "%s: %d hits, %d misses"
          s.name s.hits s.misses)
    (stats ())

type counter = { hits : int Atomic.t; misses : int Atomic.t }

let counter name =
  let c = { hits = Atomic.make 0; misses = Atomic.make 0 } in
  Mutex.protect registry_mutex (fun () ->
      registry := (name, c.hits, c.misses) :: !registry);
  c

let count c ~hit = Atomic.incr (if hit then c.hits else c.misses)

module Table = struct
  (* One table per domain (via DLS): cached values may carry mutable
     state (BDD managers), and a value no two domains observe needs no
     synchronization and admits no cross-domain mutation race.  The
     store remembers the [generation] it was built under; a bumped
     generation makes the domain start an empty one on next access. *)
  type ('k, 'a) t = {
    counts : counter;
    slot : (int * ('k, 'a) Hashtbl.t) ref Domain.DLS.key;
  }

  let table t =
    let r = Domain.DLS.get t.slot in
    let gen, tbl = !r in
    let cur = Atomic.get generation in
    if gen = cur then tbl
    else begin
      let tbl = Hashtbl.create 64 in
      r := (cur, tbl);
      tbl
    end

  let create name =
    let slot =
      Domain.DLS.new_key (fun () ->
          ref (Atomic.get generation, Hashtbl.create 64))
    in
    { counts = counter name; slot }

  let find_or_add ?valid t key compute =
    let usable v = match valid with None -> true | Some ok -> ok v in
    if not (enabled ()) then compute ()
    else
      let tbl = table t in
      match Hashtbl.find_opt tbl key with
      | Some v when usable v ->
          count t.counts ~hit:true;
          v
      | _ ->
          count t.counts ~hit:false;
          let v = compute () in
          Hashtbl.replace tbl key v;
          v
end

(* The memory-pressure valve the evaluation server pulls when its session
   budget overflows.  Every table is domain-local, so a trim is a counted
   [clear_all]: each domain drops its tables on next access. *)
let trim_count = Atomic.make 0

let trim_all () =
  Atomic.incr trim_count;
  clear_all ()

let trims () = Atomic.get trim_count
