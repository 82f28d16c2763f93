(* Canonical structural keys and memo tables for the solve cache.

   Keys are exact, injective serializations rather than bare hashes: a
   collision in a 64-bit hash would silently return the wrong cached
   solve, so we only ever compare full keys (the Hashtbl hashes them
   internally for bucketing, but equality is on the complete string).

   Tables are domain-local (via [Domain.DLS]) so cached values that
   contain mutable state — BDD managers, reachability skeletons, solver
   workspaces — are never shared between domains of the parallel pool.
   Hit/miss counters are global atomics so [stats] and [report] see the
   whole program's behaviour regardless of which domain did the work. *)

(* --- canonical key serialization -------------------------------------- *)

type builder = Buffer.t

let builder tag =
  let b = Buffer.create 256 in
  Buffer.add_string b tag;
  Buffer.add_char b '|';
  b

(* Length-prefixing keeps the encoding injective: no concatenation of two
   different field sequences can produce the same bytes. *)
let add_string b s =
  Buffer.add_char b 's';
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let add_int b i =
  Buffer.add_char b 'i';
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let add_bool b v = Buffer.add_string b (if v then "T" else "F")

(* Bit-exact: the tag then the 8 raw bytes of the IEEE bit pattern,
   little-endian.  Two floats get the same encoding iff they have the same
   bit pattern: [0.] and [-0.] differ, and [bits_of_float] keeps a NaN's
   sign and payload, so distinct NaNs get distinct keys (a spurious miss
   at worst, never a wrong hit).  The field is fixed-width, so it needs no
   terminator and the bytes may spell any tag or bracket without breaking
   injectivity. *)
let add_float b x =
  Buffer.add_char b 'f';
  Buffer.add_int64_le b (Int64.bits_of_float x)

let add_list b f xs =
  Buffer.add_char b '[';
  List.iter (f b) xs;
  Buffer.add_char b ']'

let add_array b f xs =
  Buffer.add_char b '[';
  Array.iter (f b) xs;
  Buffer.add_char b ']'

let finish b = Buffer.contents b

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

(* One trim closure per table, registered at creation.  [trim_all] is the
   memory-pressure valve the evaluation server pulls when its session
   budget overflows: shared tables drop about half their entries in
   place, domain-local tables are cleared lazily (their epoch bumps and
   each domain rebuilds on next access — other domains' DLS state cannot
   be touched directly). *)
let trimmers : (unit -> int) list ref = ref [] (* guarded by registry_mutex *)
let trim_count = Atomic.make 0

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

module Table = struct
  (* Two storage shapes:

     - [Local]: one table per domain (via DLS).  The only choice for
       cached values that carry mutable state (solved SRN instances with
       their accumulated measure caches, BDD managers): they are never
       observed by two domains, so no synchronization is needed and no
       cross-domain mutation race can exist.

     - [Shared]: one process-wide table, lock-striped into [nsegments]
       independently-locked segments keyed by the key's hash.  Only
       sound for IMMUTABLE cached values (reachability skeletons), but
       then strictly better for the evaluation server: a skeleton
       explored while serving one request is a hit for every later
       request regardless of which worker domain it lands on.  Striping
       matters once sweep batches really run on several domains: with a
       single mutex every lookup of every domain serializes on one lock,
       which measurably flattens the parallel speedup the pool buys. *)

  (* Power of two so segment selection is a mask, not a division. *)
  let nsegments = 16

  type 'a segment = {
    seg_mutex : Mutex.t;
    seg_store : (int * (string, 'a) Hashtbl.t) ref;
  }

  type 'a store =
    | Local of (int * (string, 'a) Hashtbl.t) ref Domain.DLS.key
    | Shared of 'a segment array

  (* [Hashtbl.hash] on the full key string; the table inside the segment
     re-hashes, but bucketing twice is cheap next to a key comparison. *)
  let segment_of segs key = segs.(Hashtbl.hash key land (nsegments - 1))

  type 'a t = {
    hits : int Atomic.t;
    misses : int Atomic.t;
    epoch : int Atomic.t; (* per-table trim epoch for lazy Local clears *)
    store : 'a store;
  }

  (* A store is valid while its stamp matches [generation + epoch]: both
     counters only grow, so bumping either (global clear, per-table trim)
     invalidates every existing store exactly once. *)
  let stamp epoch = Atomic.get generation + Atomic.get epoch

  (* The caller must hold the table's mutex when the store is [Shared]. *)
  let table_of_ref epoch r =
    let gen, tbl = !r in
    let cur = stamp epoch in
    if gen = cur then tbl
    else begin
      let tbl = Hashtbl.create 64 in
      r := (cur, tbl);
      tbl
    end

  let trim_table t =
    match t.store with
    | Shared segs ->
        (* drop roughly every other entry in place, one segment at a
           time; survivors keep serving hits while the working set
           halves, and lookups on other segments never block *)
        Array.fold_left
          (fun dropped seg ->
            Mutex.protect seg.seg_mutex (fun () ->
                let tbl = table_of_ref t.epoch seg.seg_store in
                let keep = ref false in
                let victims =
                  Hashtbl.fold
                    (fun k _ acc ->
                      keep := not !keep;
                      if !keep then k :: acc else acc)
                    tbl []
                in
                List.iter (Hashtbl.remove tbl) victims;
                dropped + List.length victims))
          0 segs
    | Local _ ->
        (* other domains' DLS stores are unreachable from here: bump the
           epoch so each domain drops its whole table on next access *)
        Atomic.incr t.epoch;
        0

  let create ?(shared = false) name =
    let hits = Atomic.make 0 and misses = Atomic.make 0 in
    let epoch = Atomic.make 0 in
    let store =
      if shared then
        Shared
          (Array.init nsegments (fun _ ->
               { seg_mutex = Mutex.create ();
                 seg_store = ref (stamp epoch, Hashtbl.create 64) }))
      else
        Local (Domain.DLS.new_key (fun () -> ref (stamp epoch, Hashtbl.create 64)))
    in
    let t = { hits; misses; epoch; store } in
    Mutex.protect registry_mutex (fun () ->
        registry := (name, hits, misses) :: !registry;
        trimmers := (fun () -> trim_table t) :: !trimmers);
    t

  let find_or_add ?valid t key compute =
    let usable v = match valid with None -> true | Some ok -> ok v in
    if not (enabled ()) then compute ()
    else
      match t.store with
      | Local slot -> (
          let tbl = table_of_ref t.epoch (Domain.DLS.get slot) in
          match Hashtbl.find_opt tbl key with
          | Some v when usable v ->
              Atomic.incr t.hits;
              v
          | _ ->
              Atomic.incr t.misses;
              let v = compute () in
              Hashtbl.replace tbl key v;
              v)
      | Shared segs -> (
          let seg = segment_of segs key in
          let found =
            Mutex.protect seg.seg_mutex (fun () ->
                Hashtbl.find_opt (table_of_ref t.epoch seg.seg_store) key)
          in
          (* [valid] runs outside the lock, like [compute] *)
          match found with
          | Some v when usable v ->
              Atomic.incr t.hits;
              v
          | _ ->
              Atomic.incr t.misses;
              (* compute OUTSIDE the lock: a slow exploration must not
                 stall every other domain's lookups.  Two domains may
                 race to compute the same key, and their results need
                 not be equal when the key does not capture every input
                 (an SRN skeleton depends on which rates are 0).
                 Last-write-wins is still harmless: a caller whose key
                 does capture every input gets interchangeable values,
                 and one that does not passes [valid], which re-checks
                 whatever a later lookup reads. *)
              let v = compute () in
              Mutex.protect seg.seg_mutex (fun () ->
                  Hashtbl.replace (table_of_ref t.epoch seg.seg_store) key v);
              v)

  let find_opt t key =
    if not (enabled ()) then None
    else
      match t.store with
      | Local slot ->
          Hashtbl.find_opt (table_of_ref t.epoch (Domain.DLS.get slot)) key
      | Shared segs ->
          let seg = segment_of segs key in
          Mutex.protect seg.seg_mutex (fun () ->
              Hashtbl.find_opt (table_of_ref t.epoch seg.seg_store) key)
end

let trim_all () =
  let ts = Mutex.protect registry_mutex (fun () -> !trimmers) in
  Atomic.incr trim_count;
  List.fold_left (fun acc trim -> acc + trim ()) 0 ts

let trims () = Atomic.get trim_count
