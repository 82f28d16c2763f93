(* The SHARPE interpreter: statement execution, expression evaluation,
   model instantiation and the system-analysis builtins (thesis ch. 2-3).

   The analysis builtins and the expression evaluator are mutually
   recursive (hierarchical models evaluate analysis calls inside model
   definitions), tied with one forward reference, [builtin]. *)

open Ast
module E = Sharpe_expo.Exponomial
module D = Sharpe_expo.Dist
module Ctmc = Sharpe_markov.Ctmc
module Acyclic = Sharpe_markov.Acyclic
module Fast_mttf = Sharpe_markov.Fast_mttf
module SM = Sharpe_semimark.Semi_markov
module Mrgp = Sharpe_mrgp.Mrgp
module Rbd = Sharpe_rbd.Rbd
module Ftree = Sharpe_ftree.Ftree
module Mstree = Sharpe_mstree.Mstree
module Pms = Sharpe_pms.Pms
module Relgraph = Sharpe_relgraph.Relgraph
module Spg = Sharpe_spg.Spg
module Pfqn = Sharpe_pfqn.Pfqn
module Mpfqn = Sharpe_pfqn.Mpfqn
module Net = Sharpe_petri.Net
module Srn = Sharpe_petri.Srn
module Pepa = Sharpe_pepa.Pepa
module Pool = Sharpe_numerics.Pool
module Deadline = Sharpe_numerics.Deadline
module Diag = Sharpe_numerics.Diag

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* Default iteration budget for `while` loops; each environment carries
   its own copy (sessions must not leak configuration into each other),
   overridable per environment so tests can exercise the exhaustion path
   without a million iterations. *)
let default_fuel_limit = 1_000_000

(* --- instances ------------------------------------------------------ *)

(* A markov instance's steady state, solved on first use, with the Diag
   records the solve emitted (contexts relative to the call) and the
   environment version they were last emitted in: a rebuilt instance
   would solve, and emit them, once per version. *)
type steady = {
  mutable pi : float array option;
  mutable pi_records : Diag.record list;
  mutable pi_seen : int;
}

(* What a markov and a semimark instance share: the states, numbered in
   order of first appearance, the initial vector (all mass on the first
   state unless the model gives one), the reward and the fastmttf
   states. *)
type chain_inst = {
  ch_index : (string, int) Hashtbl.t;
  ch_names : string array;
  ch_init : float array;
  ch_reward : (int -> float) option;
  ch_fast : Fast_mttf.spec option;
}

type markov_inst = { mk_ctmc : Ctmc.t; mk_chain : chain_inst; mk_steady : steady }
type sm_inst = { sm : SM.t; sm_chain : chain_inst }

type pepa_inst = {
  pe_c : Pepa.compiled;
  pe_steady : float array option ref; (* per-instance steady-state cache *)
}

type mrgp_inst = {
  mg : Mrgp.t;
  mg_index : (string, int) Hashtbl.t;
  mg_reward : (int -> float) option;
}

type binding =
  | Val of float
  | VarExpr of expr
  | Func of string list * fbody
  | Model of model

(* A solved net and the reward vectors filed on it, by reward name.  A
   vector serves while every global binding its reward's definition can
   read (absent names included) is unchanged: [reads] holds them as they
   were when it was filed.  Only a reward whose definition pins down what
   it reads and calls no measure is filed (Solve_cache.reward_reads), so
   evaluating it emits no Diag record and reading a filled value in its
   place loses none. *)
type srn_inst = { srn : Srn.t; rewards : (string, filed_reward) Hashtbl.t }
and filed_reward = { vector : Srn.reward; reads : (string * binding option) array }

type instance =
  | IRbd of Rbd.t
  | IFtree of Ftree.t
  | IMstree of Mstree.t
  | IPms of Pms.t
  | IRelgraph of Relgraph.t
  | ISpg of Spg.t
  | IPfqn of Pfqn.t * int
  | IMpfqn of Mpfqn.t * (string * int) list
  | IMarkov of markov_inst
  | ISemimark of sm_inst
  | IMrgp of mrgp_inst
  | ISrn of srn_inst
  | IPepa of pepa_inst

(* --- environment ----------------------------------------------------- *)

type env = {
  table : (string, binding) Hashtbl.t;
  mutable version : int; (* a fresh stamp at every write to [table] *)
  mutable digits : int;
  mutable side : [ `Left | `Right ];
  mutable fuel_limit : int; (* iteration budget for `while` loops *)
  cache : (string * float list, entry) Hashtbl.t; (* one entry per key *)
  print : string -> unit;
}

(* An instance of a model under some arguments, filed with what its build
   read and emitted.  It serves while every binding in [reads] (absent
   names included) is unchanged and, if the build read it, the time side.
   [segs] is the build's Diag stream in order: records it emitted itself
   (contexts relative to the build) and the instances and steady states
   it used, whose own records a rebuild would emit again in a new
   version. *)
and entry = {
  inst : instance;
  reads : (string * binding option) array;
  side_read : [ `Left | `Right ] option;
  segs : seg list;
  mutable used_in : int; (* the version the entry was last used in *)
}

and seg =
  | Emit of Diag.record list
  | Use of string list * (string * float list) * use
      (* the context relative to the build, and the key used *)

and use = Build of entry | Steady

(* One level of local bindings.  A loop variable ([fold_looped] in
   Builtins, the [sum] builtin) is a single cell its loop overwrites per
   iteration; function and instance parameters, and names a function
   body binds, live in a table. *)
type scope =
  | Var of string * float ref
  | Tbl of (string, float) Hashtbl.t

(* The build in progress: the global bindings it has read (first read
   wins: a build that writes the environment is not filed), the records
   it has emitted since its last use of another instance, and its Diag
   stream so far.  [depth] is the Diag context depth the build started
   at. *)
type frame = {
  read : (string, binding option) Hashtbl.t;
  mutable side_seen : [ `Left | `Right ] option;
  sink : Diag.sink;
  depth : int;
  mutable stream : seg list; (* newest first *)
  mutable open_ : bool; (* net closures outlive their build *)
}

type ctx = {
  env : env;
  locals : scope list; (* innermost first *)
  marking : Net.t option ref option;
      (* the net whose marking #(p), ?(t) and Rate(t) read: the one in
         [current_marking] (the ref is filled once the net is built) *)
  in_func : bool;
  frame : frame option; (* the build this evaluation is part of *)
}

(* The marking a net closure is being evaluated at, one cell per domain.
   [eval_at] sets it around each evaluation and restores it afterwards,
   so a closure attaches its marking without copying the context, nested
   evaluations (a rate reading ?(t) re-enters its own net, a hierarchical
   rate solves another) each see their own marking, and two domains
   evaluating closures of the same net never share a cell. *)
let current_marking : Net.marking ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

(* Versions are stamps drawn from one counter for the whole process: no
   two environments, and no two iterations of a parallel loop sharing an
   instance table, ever hold the same version, so "used in this version"
   names one state of one environment. *)
let stamps = Atomic.make 0
let next_stamp () = Atomic.fetch_and_add stamps 1 + 1

let make_env ?(print = print_string) ?(fuel_limit = default_fuel_limit) () =
  { table = Hashtbl.create 64;
    version = next_stamp ();
    digits = 6;
    side = `Left;
    fuel_limit;
    cache = Hashtbl.create 32;
    print }

let base_ctx env = { env; locals = []; marking = None; in_func = false; frame = None }
let touch env = env.version <- next_stamp ()

(* --- what a build reads and emits ------------------------------------- *)

let recording ctx =
  match ctx.frame with Some f as open_frame when f.open_ -> open_frame | _ -> None

(* The global binding of [n], noted as read by the build in progress *)
let global ctx n =
  let b = Hashtbl.find_opt ctx.env.table n in
  (match recording ctx with
  | Some f when not (Hashtbl.mem f.read n) -> Hashtbl.add f.read n b
  | _ -> ());
  b

let side ctx =
  (match recording ctx with
  | Some f when f.side_seen = None -> f.side_seen <- Some ctx.env.side
  | _ -> ());
  ctx.env.side

let same_binding a b =
  match (a, b) with
  | None, None -> true
  | Some (Val x), Some (Val y) -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Some (VarExpr x), Some (VarExpr y) -> x == y
  | Some (Func (p, x)), Some (Func (q, y)) -> p == q && x == y
  | Some (Model x), Some (Model y) -> x == y
  | _ -> false

(* Every binding in [reads] is still [env]'s *)
let reads_hold env reads =
  Array.for_all (fun (n, b) -> same_binding b (Hashtbl.find_opt env.table n)) reads

(* Within one version no binding changes; the side is switched without a
   new version, so it is always compared. *)
let still_valid env e =
  (e.used_in = env.version || reads_hold env e.reads)
  && match e.side_read with None -> true | Some s -> s = env.side

let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: l -> drop (n - 1) l

let context_depth () = List.length (Diag.current_context ())
let relative depth (r : Diag.record) = { r with context = drop depth r.context }

(* The records [f] emitted itself since its last use become a segment. *)
let flush f =
  match Diag.records f.sink with
  | [] -> ()
  | rs ->
      f.stream <- Emit (List.map (relative f.depth) rs) :: f.stream;
      Diag.clear f.sink

let open_frame () =
  { read = Hashtbl.create 16; side_seen = None; sink = Diag.create_sink ();
    depth = context_depth (); stream = []; open_ = true }

(* The build in progress read [reads] too, through an instance it used *)
let add_reads ctx reads side_read =
  match recording ctx with
  | None -> ()
  | Some p ->
      Seq.iter (fun (n, b) -> if not (Hashtbl.mem p.read n) then Hashtbl.add p.read n b) reads;
      if p.side_seen = None then p.side_seen <- side_read

(* A build ends, filed or failed: what it read, the build that used it
   read too *)
let close_frame ctx f =
  flush f;
  f.open_ <- false;
  add_reads ctx (Hashtbl.to_seq f.read) f.side_seen

let entry_of f inst version =
  { inst;
    reads = Array.of_seq (Hashtbl.to_seq f.read);
    side_read = f.side_seen;
    segs = List.rev f.stream;
    used_in = version }

(* [use ctx key u run]: [run ()] uses instance [key] (builds or replays
   it, or solves its steady state) on behalf of the build in progress,
   which files the use [u v] of its result [v] instead of the records it
   emitted. *)
let use ctx key u run =
  match recording ctx with
  | None -> run ()
  | Some f ->
      flush f;
      let v = run () in
      Diag.clear f.sink;
      f.stream <- Use (drop f.depth (Diag.current_context ()), key, u v) :: f.stream;
      v

let with_contexts labels run =
  List.fold_right (fun l k () -> Diag.with_context l k) labels run ()

(* The steady state of [mi], its records emitted once per version *)
let solve_steady env mi =
  let s = mi.mk_steady in
  match s.pi with
  | Some pi ->
      if s.pi_seen <> env.version then begin
        s.pi_seen <- env.version;
        List.iter Diag.emit_record s.pi_records
      end;
      pi
  | None ->
      let depth = context_depth () in
      let pi, records = Diag.capture (fun () -> Ctmc.steady_state mi.mk_ctmc) in
      s.pi <- Some pi;
      s.pi_records <- List.map (relative depth) records;
      s.pi_seen <- env.version;
      pi

(* Emit what rebuilding [e] now would: its records, and those of each
   instance it used that is not already in use in this version. *)
let rec replay env e =
  if e.used_in <> env.version then begin
    e.used_in <- env.version;
    List.iter
      (function
        | Emit rs -> List.iter Diag.emit_record rs
        | Use (labels, key, u) -> with_contexts labels (fun () -> replay_use env key u))
      e.segs
  end

and replay_use env key u =
  match (u, Hashtbl.find_opt env.cache key) with
  | Build _, Some cur when cur.used_in = env.version -> ()
  | Build e, _ ->
      (* [e] is valid: every binding it read, the user's build read too *)
      Hashtbl.replace env.cache key e;
      replay env e
  | Steady, Some { inst = IMarkov mi; _ } -> ignore (solve_steady env mi)
  | Steady, _ -> ()

(* The innermost local binding of [n].  A loop rather than
   [List.find_map]: rate closures look names up once per edge, and the
   closure would be allocated on every lookup. *)
let rec find_local n = function
  | [] -> None
  | Var (v, x) :: rest -> if String.equal v n then Some !x else find_local n rest
  | Tbl tbl :: rest -> (
      match Hashtbl.find_opt tbl n with
      | None -> find_local n rest
      | found -> found)

let lookup_local ctx n = find_local n ctx.locals

let set_binding env n b =
  Hashtbl.replace env.table n b;
  touch env

(* SHARPE-style number printing: fixed for integers under the default
   format, three-digit-exponent scientific otherwise *)
let fmt_num env x =
  if Float.is_integer x && Float.abs x < 1e15 && env.digits <= 6 then
    Printf.sprintf "%.6f" x
  else begin
    let s = Printf.sprintf "%.*e" env.digits x in
    match String.index_opt s 'e' with
    | None -> s
    | Some i ->
        let mant = String.sub s 0 i in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let sign, ds =
          if rest.[0] = '+' || rest.[0] = '-' then
            (String.make 1 rest.[0], String.sub rest 1 (String.length rest - 1))
          else ("+", rest)
        in
        let ds = if String.length ds >= 3 then ds else String.make (3 - String.length ds) '0' ^ ds in
        mant ^ "e" ^ sign ^ ds
  end

(* A builtin as the evaluator calls it ([pure]: a function of its arguments) *)
type builtin = { pure : bool; run : run }

and run =
  | Math of (ctx -> expr list list -> float option)
      (* wins over a user function where the call has its shape ([Some]) *)
  | Measure of (ctx -> expr list list -> float)
  | Printer of (ctx -> string -> expr list list -> unit)
      (* a statement outside functions, given the statement's text *)

(* The builtin of each name, from Builtins' table *)
let builtin : (string -> builtin option) ref = ref (fun _ -> None)

(* --- expression evaluation ------------------------------------------- *)

let truthy x = x <> 0.0
let bool_ b = if b then 1.0 else 0.0

let rec eval_expr ctx e : float =
  match e with
  | Num x -> x
  | Ident n -> eval_ident ctx n
  | Neg e -> -.eval_expr ctx e
  | Not e -> bool_ (not (truthy (eval_expr ctx e)))
  | Binop (op, a, b) -> eval_binop ctx op a b
  | TokCount p ->
      let n = marked_net ctx "#" p in
      float_of_int !(Domain.DLS.get current_marking).(Net.place_index n p)
  | Enabled t ->
      let n = marked_net ctx "?" t in
      bool_ (Net.enabled_named n !(Domain.DLS.get current_marking) t)
  | Tmpl _ -> err "templated name used as a numeric value"
  | Call (f, groups) -> eval_call ctx f groups

and marked_net ctx what name =
  match ctx.marking with
  | Some net -> (
      match !net with
      | Some n -> n
      | None -> err "%s(%s) used while the net is being built" what name)
  | None -> err "%s(%s) outside a marking context" what name

and eval_ident ctx n =
  match lookup_local ctx n with
  | Some v -> v
  | None -> (
      match global ctx n with
      | Some (Val v) -> v
      | Some (VarExpr e) -> eval_expr { ctx with locals = [] } e
      | Some (Func ([], _)) -> call_func ctx n [] []
      | Some (Func _) -> err "function %s used without arguments" n
      | Some (Model _) -> err "model %s used as a value" n
      | None -> err "undefined name %s" n)

and eval_binop ctx op a b =
  match op with
  | Add -> eval_expr ctx a +. eval_expr ctx b
  | Sub -> eval_expr ctx a -. eval_expr ctx b
  | Mul -> eval_expr ctx a *. eval_expr ctx b
  | Div -> eval_expr ctx a /. eval_expr ctx b
  | Pow -> Float.pow (eval_expr ctx a) (eval_expr ctx b)
  | BAnd -> bool_ (truthy (eval_expr ctx a) && truthy (eval_expr ctx b))
  | BOr -> bool_ (truthy (eval_expr ctx a) || truthy (eval_expr ctx b))
  | BEq -> bool_ (eval_expr ctx a = eval_expr ctx b)
  | BNeq -> bool_ (eval_expr ctx a <> eval_expr ctx b)
  | BLt -> bool_ (eval_expr ctx a < eval_expr ctx b)
  | BGt -> bool_ (eval_expr ctx a > eval_expr ctx b)
  | BLe -> bool_ (eval_expr ctx a <= eval_expr ctx b)
  | BGe -> bool_ (eval_expr ctx a >= eval_expr ctx b)

and eval_call ctx f groups =
  let b = !builtin f in
  let math = match b with Some { run = Math m; _ } -> m ctx groups | _ -> None in
  match math with
  | Some v -> v
  | None -> (
      match (global ctx f, b) with
      | Some (Func (params, _)), _ -> call_func ctx f params (List.concat groups)
      | _, Some { run = Measure m; _ } -> m ctx groups
      | _ -> err "unknown function %s" f)

and call_func ctx fname params arg_exprs =
  let expected = List.length params and got = List.length arg_exprs in
  if expected <> got then
    err "function %s expects %d argument(s), got %d" fname expected got;
  let tbl = Hashtbl.create 8 in
  List.iter2 (fun p a -> Hashtbl.replace tbl p (eval_expr ctx a)) params arg_exprs;
  let fctx = { ctx with locals = [ Tbl tbl ]; in_func = true } in
  match global ctx fname with
  | Some (Func (_, FExpr e)) -> eval_expr fctx e
  | Some (Func (_, FStmts body)) -> (
      match exec_stmts fctx body with
      | Some v -> v
      | None -> err "function %s returned no value" fname)
  | _ -> err "%s is not a function" fname

(* [eval_at ctx m e]: [e] at marking [m] of [ctx]'s net. *)
and eval_at ctx m e =
  let cell = Domain.DLS.get current_marking in
  let saved = !cell in
  cell := m;
  match eval_expr ctx e with
  | v ->
      cell := saved;
      v
  | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      cell := saved;
      Printexc.raise_with_backtrace ex bt

(* --- statements ------------------------------------------------------ *)

and exec_stmts ctx stmts : float option =
  List.fold_left
    (fun last s -> match exec_stmt ctx s with Some v -> Some v | None -> last)
    None stmts

and exec_stmt ctx stmt : float option =
  Deadline.check ();
  match stmt with
  | SFormat e ->
      ctx.env.digits <- int_of_float (eval_expr ctx e);
      None
  | SEcho text ->
      if not ctx.in_func then ctx.env.print (text ^ "\n");
      None
  | SEpsilon (_, e) ->
      (* accepted and ignored: the solvers keep their own tolerances *)
      ignore (eval_expr ctx e);
      None
  | SSwitch ("ltimep", _) -> ctx.env.side <- `Left; None
  | SSwitch ("rtimep", _) -> ctx.env.side <- `Right; None
  | SSwitch (_, _) -> None
  | SBind (`Single (n, e)) ->
      (* SHARPE echoes single-statement binds of computed expressions *)
      let echo = match e with Num _ -> false | _ -> not ctx.in_func in
      bind ctx ~echo n e;
      None
  | SBind (`Block binds) ->
      List.iter (fun (n, e) -> bind ctx ~echo:false n e) binds;
      None
  | SVar (n, e) -> set_binding ctx.env n (VarExpr e); None
  | SFunc (n, params, body) -> set_binding ctx.env n (Func (params, body)); None
  | SModel m -> set_binding ctx.env (model_name m) (Model m); None
  | SExpr items ->
      let last = ref None in
      List.iter
        (fun (text, e) ->
          let printer =
            match e with
            | Call (f, groups) when not ctx.in_func -> (
                match !builtin f with Some { run = Printer p; _ } -> Some (p, groups) | _ -> None)
            | _ -> None
          in
          match printer with
          | Some (p, groups) -> p ctx text groups
          | None ->
              let v = eval_expr ctx e in
              last := Some v;
              if not ctx.in_func then
                ctx.env.print (Printf.sprintf "%s: %s\n" text (fmt_num ctx.env v)))
        items;
      !last
  | SIf (clauses, els) ->
      let rec go = function
        | [] -> exec_stmts ctx els
        | (c, body) :: rest ->
            if truthy (eval_expr ctx c) then exec_stmts ctx body else go rest
      in
      go clauses
  | SWhile (cond, body) ->
      let last = ref None in
      let fuel = ref ctx.env.fuel_limit in
      let continue_ = ref (truthy (eval_expr ctx cond)) in
      while !continue_ && !fuel > 0 do
        Deadline.check ();
        (match exec_stmts ctx body with Some v -> last := Some v | None -> ());
        decr fuel;
        continue_ := truthy (eval_expr ctx cond)
      done;
      (* only a loop whose condition is STILL true when the fuel runs out
         exceeded the limit; terminating on exactly the last allowed
         iteration is a legitimate finish *)
      if !continue_ then err "while loop exceeded the iteration limit";
      !last
  | SLoop (v, lo, hi, step, body) ->
      let lo = eval_expr ctx lo and hi = eval_expr ctx hi in
      let step = match step with Some s -> eval_expr ctx s | None -> 1.0 in
      if step = 0.0 then err "loop step is zero";
      let continues x =
        if step > 0.0 then x <= hi +. (Float.abs step /. 2.0)
        else x >= hi -. (Float.abs step /. 2.0)
      in
      let values =
        let acc = ref [] and x = ref lo in
        while continues !x do
          Deadline.check ();
          acc := !x :: !acc;
          x := !x +. step
        done;
        Array.of_list (List.rev !acc)
      in
      let n = Array.length values in
      let parallel_ok =
        Pool.jobs () > 1 && n > 1 && (not (Pool.in_worker ()))
        && (not ctx.in_func) && Option.is_none ctx.marking && parallel_safe body
      in
      if parallel_ok then exec_loop_parallel ctx v values body
      else begin
        let last = ref None in
        let set x =
          match ctx.locals with
          | Tbl tbl :: _ when ctx.in_func -> Hashtbl.replace tbl v x
          | _ ->
              Hashtbl.replace ctx.env.table v (Val x);
              touch ctx.env
        in
        Array.iter
          (fun x ->
            set x;
            match exec_stmts ctx body with
            | Some r -> last := Some r
            | None -> ())
          values;
        !last
      end

(* Evaluate independent loop iterations concurrently.  Each iteration runs
   against a CLONE of the environment (own binding table and version,
   print buffered), so iterations cannot observe each other; the body was
   vetted by [parallel_safe] to contain no statement that writes the
   shared environment.  The iterations one domain runs share that
   domain's instance table for the length of the loop, as the serial
   loop's iterations share the environment's: an instance whose build
   did not read the loop variable is built once per domain, and no table
   is touched by two domains (a solved SRN carries mutable measure
   caches).  The parent's table is neither read nor written.  Printed
   output is flushed in iteration order after the pool returns,
   diagnostics are replayed in iteration order by the pool itself, and
   on failure the lowest-index exception is re-raised after the output of
   the iterations before it — observationally identical to the serial
   loop. *)
and exec_loop_parallel ctx v values body =
  let n = Array.length values in
  let bufs = Array.init n (fun _ -> Buffer.create 256) in
  let caches = Hashtbl.create 4 and lock = Mutex.create () in
  let domain_cache () =
    let d = (Domain.self () :> int) in
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt caches d with
        | Some c -> c
        | None ->
            let c = Hashtbl.create 32 in
            Hashtbl.add caches d c;
            c)
  in
  let exception Iter_fail of int * exn * Printexc.raw_backtrace in
  let run_iter i =
    let table = Hashtbl.copy ctx.env.table in
    Hashtbl.replace table v (Val values.(i));
    let env' =
      { ctx.env with table; version = next_stamp (); cache = domain_cache ();
        print = Buffer.add_string bufs.(i) }
    in
    let ctx' = { ctx with env = env' } in
    match exec_stmts ctx' body with
    | r -> (r, table)
    | exception e -> raise (Iter_fail (i, e, Printexc.get_raw_backtrace ()))
  in
  match Pool.run n run_iter with
  | exception Iter_fail (i, e, bt) ->
      (* the pool already replayed the diagnostics of iterations 0..i;
         print their output (i's partial output included) before failing *)
      for k = 0 to i do
        ctx.env.print (Buffer.contents bufs.(k))
      done;
      Printexc.raise_with_backtrace e bt
  | results ->
      Array.iter (fun b -> ctx.env.print (Buffer.contents b)) bufs;
      (* the serial loop leaves the loop variables (outer and nested) at
         their final-iteration values in the environment *)
      let _, last_table = results.(n - 1) in
      List.iter
        (fun name ->
          match Hashtbl.find_opt last_table name with
          | Some b -> Hashtbl.replace ctx.env.table name b
          | None -> ())
        (v :: loop_vars_of [] body);
      touch ctx.env;
      let rec last i =
        if i < 0 then None
        else match results.(i) with Some r, _ -> Some r | None, _ -> last (i - 1)
      in
      last (n - 1)

and bind ctx ~echo n e =
  let v = eval_expr ctx e in
  match ctx.locals with
  | Tbl tbl :: _ when ctx.in_func -> Hashtbl.replace tbl n v
  | _ ->
      set_binding ctx.env n (Val v);
      if echo then ctx.env.print (Printf.sprintf "%s <- %s\n" n (fmt_num ctx.env v))

(* A loop body is safe to parallelize when no statement in it (or in a
   nested loop/conditional) writes the shared environment: definitions,
   while-loops (which exist to do fixed-point iteration via bind),
   format/switch changes all force the serial path.  Expression
   evaluation (an ignored epsilon included), printing and nested loops
   over the cloned environment are fine.  (Statements inside user
   FUNCTIONS called from the body execute against the iteration's clone;
   a function that defines globals would see that definition confined to
   its iteration.) *)
and parallel_safe body =
  let rec safe = function
    | SExpr _ | SEcho _ | SEpsilon _ -> true
    | SIf (clauses, els) ->
        List.for_all (fun (_, ss) -> List.for_all safe ss) clauses
        && List.for_all safe els
    | SLoop (_, _, _, _, ss) -> List.for_all safe ss
    | SBind _ | SVar _ | SFunc _ | SModel _ | SWhile _ | SFormat _ | SSwitch _ ->
        false
  in
  List.for_all safe body

and loop_vars_of acc = function
  | [] -> acc
  | SLoop (v, _, _, _, ss) :: rest ->
      loop_vars_of (loop_vars_of (v :: acc) ss) rest
  | SIf (clauses, els) :: rest ->
      let acc =
        List.fold_left (fun a (_, ss) -> loop_vars_of a ss) acc clauses
      in
      loop_vars_of (loop_vars_of acc els) rest
  | _ :: rest -> loop_vars_of acc rest
