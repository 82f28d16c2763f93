(* Per-layer metrics: the counters every workload reads the same way
   (solve caches, pool participation, GC, Diag records) and the
   aggregation of the benchmark's spans. *)

module Diag = Sharpe_numerics.Diag
module Pool = Sharpe_numerics.Pool
module Structhash = Sharpe_numerics.Structhash

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let mi name unit_ value = m name unit_ (float_of_int value)

(* --- solve caches --------------------------------------------------- *)

let cache_tables =
  [ "srn_skeleton"; "srn_instance"; "pepa_instance"; "ftree_bdd"; "pfqn_mva" ]

type cache_counts = (string * (int * int)) list

let cache_counts () : cache_counts =
  List.map
    (fun s -> (s.Structhash.name, (s.Structhash.hits, s.Structhash.misses)))
    (Structhash.stats ())

(* Hits and misses per op over an interval, and the hit ratio. *)
let cache_metrics ~ops ~(before : cache_counts) ~(after : cache_counts) =
  let get l t = Option.value ~default:(0, 0) (List.assoc_opt t l) in
  List.concat_map
    (fun t ->
      let h0, m0 = get before t and h1, m1 = get after t in
      let h = float_of_int (h1 - h0) and ms = float_of_int (m1 - m0) in
      let per_op x = Util.ratio x (float_of_int ops) in
      [ m ("cache." ^ t ^ ".hits") "count/op" (per_op h);
        m ("cache." ^ t ^ ".misses") "count/op" (per_op ms);
        m ("cache." ^ t ^ ".hit_ratio") "ratio" (Util.ratio h (h +. ms)) ])
    cache_tables

(* --- pool ----------------------------------------------------------- *)

let imbalance (p : Pool.participation) =
  let tasks = Array.of_list (List.map (fun (_, n) -> float_of_int n) p.tasks_per_domain) in
  Util.ratio (Array.fold_left Float.max 0.0 tasks) (Util.mean tasks)

let pool_metrics ~ops (p : Pool.participation) =
  let per_op x = Util.ratio (float_of_int x) (float_of_int ops) in
  [ m "pool.batches" "count/op" (per_op p.batches);
    m "pool.serial_batches" "count/op" (per_op p.serial_batches);
    mi "pool.distinct_domains" "count" p.distinct_domains;
    mi "pool.max_batch_domains" "count" p.max_batch_domains;
    m "pool.task_imbalance" "ratio" (imbalance p) ]

let participation_json (p : Pool.participation) =
  Json.Obj
    [ ("batches", Json.Num (float_of_int p.batches));
      ("serial_batches", Json.Num (float_of_int p.serial_batches));
      ("distinct_domains", Json.Num (float_of_int p.distinct_domains));
      ("max_batch_domains", Json.Num (float_of_int p.max_batch_domains));
      ( "tasks_per_domain",
        Json.List
          (List.map
             (fun (d, n) -> Json.List [ Json.Num (float_of_int d); Json.Num (float_of_int n) ])
             p.tasks_per_domain) ) ]

(* --- GC ------------------------------------------------------------- *)

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let gc_metrics ~ops ~before:(w0, c0) ~after:(w1, c1) =
  let per_op x = Util.ratio x (float_of_int ops) in
  [ m "gc.minor_words_per_op" "words/op" (per_op (w1 -. w0));
    m "gc.major_collections_per_op" "count/op" (per_op (float_of_int (c1 - c0))) ]

(* --- Diag records: transient and linear-solver provenance ----------- *)

(* Solver names become metric-name segments. *)
let sanitize s =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_') s
  |> String.split_on_char '_' |> List.filter (( <> ) "") |> String.concat "_"

(* Width of the Poisson window a ctmc_transient record reports. *)
let poisson_terms (r : Diag.record) =
  match String.index_opt r.message '[' with
  | Some i -> (
      try
        Scanf.sscanf
          (String.sub r.message i (String.length r.message - i))
          "[%d, %d]" (fun l h -> h - l + 1)
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> 0)
  | None -> 0

let accepted_solve (r : Diag.record) =
  r.severity = Diag.Info
  && (String.starts_with ~prefix:"krylov steady state" r.message
     || String.starts_with ~prefix:"banded GTH" r.message)

(* Transient and linear-solve metrics from the Diag records of [ops] ops.
   Only solves that record an Info (Krylov, banded GTH) are visible; a
   direct or first-pass Gauss-Seidel solve records nothing. *)
let diag_metrics ~ops (records : Diag.record list) =
  let per_op x = Util.ratio (float_of_int x) (float_of_int ops) in
  let transients = List.filter (fun r -> r.Diag.solver = "ctmc_transient") records in
  let solves = ref 0 and attempts = ref 0 and first = ref 0 and since = ref 0 in
  let residual = ref 0.0 in
  let iters = Hashtbl.create 4 in
  List.iter
    (fun (r : Diag.record) ->
      let count_iters () =
        Option.iter
          (fun n ->
            let k = sanitize r.solver in
            Hashtbl.replace iters k (n + Option.value ~default:0 (Hashtbl.find_opt iters k)))
          r.iterations
      in
      if accepted_solve r then begin
        incr solves;
        incr attempts;
        if !since = 0 then incr first;
        since := 0;
        count_iters ();
        Option.iter (fun x -> residual := Float.max !residual x) r.residual
      end
      else if r.severity = Diag.Non_convergence then begin
        incr attempts;
        incr since;
        count_iters ()
      end
      else if r.severity = Diag.Fallback then incr since)
    records;
  let bicgstab = Option.value ~default:0 (Hashtbl.find_opt iters "bicgstab_ilu0") in
  [ m "transient.solves" "count/op" (per_op (List.length transients));
    m "transient.poisson_terms" "count/op"
      (per_op (List.fold_left (fun a r -> a + poisson_terms r) 0 transients));
    m "linsolve.attempts_per_solve" "ratio"
      (Util.ratio (float_of_int !attempts) (float_of_int !solves));
    m "linsolve.first_rung_ratio" "ratio"
      (Util.ratio (float_of_int !first) (float_of_int !solves));
    m "linsolve.residual" "1" !residual;
    m "linsolve.iterations.bicgstab_ilu0" "count/solve"
      (Util.ratio (float_of_int bicgstab) (float_of_int !solves)) ]
  @ (Hashtbl.fold (fun k v acc -> (k, v) :: acc) iters []
    |> List.sort compare
    |> List.filter (fun (k, _) -> k <> "bicgstab_ilu0")
    |> List.map (fun (k, v) ->
           m ("linsolve.iterations." ^ k) "count/solve"
             (Util.ratio (float_of_int v) (float_of_int (max 1 !solves)))))

(* Dense expansions of sparse systems per op ([Linsolve.dense_count]
   counts every domain's). *)
let dense_metric ~ops n =
  m "linsolve.dense_materializations" "count/op" (Util.ratio (float_of_int n) (float_of_int ops))

(* --- spans ---------------------------------------------------------- *)

(* Spans that belong to the root ops named [root]. *)
let spans_of_ops root =
  let spans = Trace.all () in
  let ids = Hashtbl.create 64 in
  List.iter (fun s -> if s.Trace.parent = 0 && s.Trace.name = root then Hashtbl.replace ids s.Trace.op ()) spans;
  (Hashtbl.length ids, List.filter (fun s -> Hashtbl.mem ids s.Trace.op) spans)

(* Parse and statement-evaluation metrics of interpreted ops:
   "parse" spans, and one "eval.<statement kind>" span per statement. *)
let interp_metrics ~ops ~parsed_bytes spans =
  let per_op x = Util.ratio x (float_of_int ops) in
  let parse = Trace.total ~spans "parse" in
  let evals = Trace.with_prefix ~spans "eval." in
  let eval_total = Util.sum (Array.of_list (List.map Trace.duration evals)) in
  let kinds = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let k = s.Trace.name in
      Hashtbl.replace kinds k (Trace.duration s +. Option.value ~default:0.0 (Hashtbl.find_opt kinds k)))
    evals;
  [ m "parse.s_per_op" "s" (per_op parse);
    m "parse.bytes_per_s" "B/s" (Util.ratio (float_of_int parsed_bytes) parse);
    m "eval.s_per_op" "s" (per_op eval_total);
    m "eval.stmts_per_op" "count/op" (per_op (float_of_int (List.length evals))) ]
  @ (Hashtbl.fold (fun k v acc -> (k, v) :: acc) kinds []
    |> List.sort compare
    |> List.map (fun (k, v) ->
           m ("eval.s_by_kind." ^ String.sub k 5 (String.length k - 5)) "s" (per_op v)))

(* Spans that repeat an op's work through the lower layers (the replay)
   or measure a kernel beside it; they are not part of the op itself. *)
let beside_op = [ "replay"; "spmv.serial"; "spmv.par" ]

(* Seconds of each traced op named [root], without its replay. *)
let op_times root =
  let _, spans = spans_of_ops root in
  let t = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let add x = Hashtbl.replace t s.Trace.op (x +. Option.value ~default:0.0 (Hashtbl.find_opt t s.Trace.op)) in
      if s.Trace.parent = 0 then add (Trace.duration s)
      else if List.mem s.Trace.name beside_op then add (-.Trace.duration s))
    spans;
  Array.of_seq (Hashtbl.to_seq_values t)

(* eval minus the replayed lower-layer time of the same ops *)
let eval_self ~ops spans =
  let evals = Trace.with_prefix ~spans "eval." in
  let eval_total = Util.sum (Array.of_list (List.map Trace.duration evals)) in
  m "eval.self_s_per_op" "s"
    (Util.ratio (eval_total -. Trace.total ~spans "replay") (float_of_int ops))
