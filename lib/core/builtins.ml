(* Model instantiation and the system-analysis builtins.

   Models are instantiated lazily: when an analysis function names a model,
   its definition is evaluated under the current global bindings plus the
   parameter values from the call's trailing argument group(s).  Instances
   are cached per (model, arguments), one entry per key, filed with every
   global binding the build read: its own definition, the names its
   expressions and functions looked up (absent ones included), the
   definitions the SRN structural key pinned, the time side, and the
   reads of every instance it used.  An entry serves while each of those bindings is
   unchanged, so a loop variable or a bind the model never reads leaves it
   standing, and a bind it does read (fixed-point iteration: bind inside
   while) rebuilds it.  A build that itself changed the environment is
   not filed.

   A rebuild in a new version would emit its Diag records again, so an
   entry keeps them and replays them at its first use in each version
   (Eval.replay), the steady states and instances it used included. *)

open Ast
open Eval
module F = Sharpe_bdd.Formula
module Diag = Sharpe_numerics.Diag

(* --- small helpers --------------------------------------------------- *)

let ev ctx e = eval_expr ctx e
let ev_int ctx e = int_of_float (Float.round (ev ctx e))

(* [v]'s decimal digits, as [string_of_int] writes them, for |v| < 1e15 *)
let rec add_digits buf v =
  if v < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf (-v)
  end
  else begin
    if v >= 10 then add_digits buf (v / 10);
    Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (v mod 10)))
  end

(* A subscript's text: an integer's digits (-0.0 writes "0"), [%g]
   otherwise *)
let add_subscript buf v =
  if Float.is_integer v then
    if Float.abs v < 1e15 then add_digits buf (int_of_float v)
    else Buffer.add_string buf (string_of_int (int_of_float v))
  else Buffer.add_string buf (Printf.sprintf "%g" v)

(* The name [tn] spells under [ctx], written into [buf] (cleared first).
   A subscript may solve another model, whose build writes its own
   buffer: a buffer belongs to one build or call, never to a domain. *)
let tname_in buf ctx (tn : tname) =
  match tn with
  | [ Lit s ] -> s
  | _ ->
      Buffer.clear buf;
      List.iter
        (function Lit s -> Buffer.add_string buf s | Sub e -> add_subscript buf (ev ctx e))
        tn;
      Buffer.contents buf

let tname_str ctx tn = tname_in (Buffer.create 16) ctx tn

(* The states of a chain being built, numbered in order of first
   appearance, and the buffer the build writes templated names into. *)
type states = {
  index : (string, int) Hashtbl.t;
  mutable names : string list; (* newest first *)
  buf : Buffer.t;
}

let new_states () = { index = Hashtbl.create 32; names = []; buf = Buffer.create 32 }

let intern st n =
  match Hashtbl.find_opt st.index n with
  | Some i -> i
  | None ->
      let i = Hashtbl.length st.index in
      Hashtbl.add st.index n i;
      st.names <- n :: st.names;
      i

let state_names st = Array.of_list (List.rev st.names)

(* The edge [a b x], its value [x] already evaluated.  Value, then
   target, then source is the order an edge's expressions are read in,
   which fixes the first error and the order of diagnostics; states are
   numbered source first. *)
let edge st ctx a b x =
  let nb = tname_in st.buf ctx b in
  let i = intern st (tname_in st.buf ctx a) in
  (i, intern st nb, x)

let name_of ctx = function
  | Ident n -> n
  | Tmpl tn -> tname_str ctx tn
  | Num x ->
      if Float.is_integer x then string_of_int (int_of_float x)
      else Printf.sprintf "%g" x
  | _ -> err "expected a name argument"

(* --- distribution expressions ---------------------------------------- *)

let dist_of_expr ctx e : E.t =
  match e with
  | Ident "zero" -> D.zero_dist
  | Ident "inf" -> D.inf_dist
  | Call ("exp", [ [ l ] ]) -> D.exponential (ev ctx l)
  | Call ("prob", [ [ p ] ]) -> D.prob (ev ctx p)
  | Call ("oneshot", [ [ p ] ]) -> D.oneshot (ev ctx p)
  | Call (("erlang" | "Erlang"), [ [ n; l ] ]) -> D.erlang (ev_int ctx n) (ev ctx l)
  | Call ("hypoexp", [ [ a; b ] ]) -> D.hypoexp (ev ctx a) (ev ctx b)
  | Call ("hyperexp", [ [ m1; p1; m2; p2 ] ]) ->
      D.hyperexp (ev ctx m1) (ev ctx p1) (ev ctx m2) (ev ctx p2)
  | Call ("mixture", [ [ p1; p2; m ] ]) -> D.mixture (ev ctx p1) (ev ctx p2) (ev ctx m)
  | Call ("defective", [ [ p; m ] ]) -> D.defective (ev ctx p) (ev ctx m)
  | Call ("inst_unavail", [ [ l; m ] ]) -> D.inst_unavail (ev ctx l) (ev ctx m)
  | Call ("ss_unavail", [ [ l; m ] ]) -> D.ss_unavail (ev ctx l) (ev ctx m)
  | Call ("activeE", [ [ m ] ]) -> D.active_e (ev ctx m)
  | Call ("activeU", [ [ a; b ] ]) -> D.active_u (ev ctx a) (ev ctx b)
  | Call ("standbyE", [ [ m; s ] ]) -> D.standby_e (ev ctx m) (ev ctx s)
  | Call ("standbyU", [ [ a; b; s ] ]) -> D.standby_u (ev ctx a) (ev ctx b) (ev ctx s)
  | Call ("binomial", [ [ l; k; n ] ]) ->
      D.binomial (ev ctx l) (ev_int ctx k) (ev_int ctx n)
  | Call ("kofn_ftree", [ [ l; k; n ] ]) ->
      D.kofn_ftree (ev ctx l) (ev_int ctx k) (ev_int ctx n)
  | Call ("kofn_block", [ [ l; k; n ] ]) ->
      D.kofn_block (ev ctx l) (ev_int ctx k) (ev_int ctx n)
  | Call (("gen" | "cgen" | "tgen"), triples) ->
      D.gen
        (List.map
           (function
             | [ a; k; b ] -> (ev ctx a, ev ctx k, ev ctx b)
             | _ -> err "gen distribution expects a,k,b triples")
           triples)
  | _ ->
      (* user-defined distribution functions and bare probabilities reduce
         to a constant (probability) distribution *)
      D.prob (ev ctx e)

(* --- model instantiation --------------------------------------------- *)

(* The instance cache's traffic, counted beside the lower caches *)
let instances = Sharpe_numerics.Structhash.counter "model_instance"

(* The instance of [mname] under [arg_vals]: the filed one while what its
   build read is unchanged (its Diag records replayed in a new version,
   where a rebuild would emit them), else a fresh build, which replaces
   it. *)
let rec instantiate ctx mname (arg_vals : float list) : instance =
  let key = (mname, arg_vals) in
  let env = ctx.env in
  let e =
    use ctx key (fun e -> Build e) (fun () ->
        match Hashtbl.find_opt env.cache key with
        | Some e when still_valid env e ->
            Sharpe_numerics.Structhash.count instances ~hit:true;
            replay env e;
            add_reads ctx (Array.to_seq e.reads) e.side_read;
            e
        | _ ->
            Sharpe_numerics.Structhash.count instances ~hit:false;
            build_entry ctx key mname arg_vals)
  in
  e.inst

and build_entry ctx key mname arg_vals =
  let env = ctx.env in
  let frame = open_frame () in
  let fctx = { ctx with frame = Some frame } in
  let version = env.version in
  let build () =
    let m =
      match global fctx mname with
      | Some (Model m) -> m
      | _ -> err "unknown model %s" mname
    in
    let params = model_params m in
    if List.length params <> List.length arg_vals then
      err "model %s expects %d argument(s), got %d" mname (List.length params)
        (List.length arg_vals);
    let tbl = Hashtbl.create 8 in
    List.iter2 (fun p v -> Hashtbl.replace tbl p v) params arg_vals;
    Diag.with_context ("model " ^ mname) (fun () ->
        build_model { fctx with locals = [ Tbl tbl ] } m)
  in
  match Diag.with_sink frame.sink build with
  | inst ->
      close_frame ctx frame;
      let e = entry_of frame inst version in
      (* only file a build that did not itself change the world *)
      if env.version = version then Hashtbl.replace env.cache key e;
      e
  | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      close_frame ctx frame;
      Printexc.raise_with_backtrace ex bt

and build_model mctx = function
  | MBlock { lines; _ } -> IRbd (build_block mctx lines)
  | MFtree { lines; _ } -> IFtree (build_ftree mctx lines)
  | MMstree { lines; _ } -> IMstree (build_mstree mctx lines)
  | MPms { phases; _ } -> IPms (build_pms mctx phases)
  | MRelgraph { edges; _ } -> IRelgraph (build_relgraph mctx edges)
  | MGraph { edges; glines; _ } -> build_graph mctx edges glines
  | MPfqn { routing; stations; chains; _ } -> build_pfqn mctx routing stations chains
  | MMpfqn { routing; stations; chains; _ } -> build_mpfqn mctx routing stations chains
  | MMarkov { edges; rewards; init; fastmttf; _ } ->
      IMarkov (build_markov mctx edges rewards init fastmttf)
  | MSemimark { mode; edges; rewards; init; fastmttf; _ } ->
      ISemimark (build_semimark mctx mode edges rewards init fastmttf)
  | MMrgp { edges; rewards; _ } -> IMrgp (build_mrgp mctx edges rewards)
  | MSrn { places; timed; immediate; inputs; outputs; inhibitors; _ } ->
      ISrn (build_srn mctx places timed immediate inputs outputs inhibitors)
  | MPepa { past; _ } -> IPepa (build_pepa mctx past)

and build_block mctx lines =
  let defs = Hashtbl.create 16 in
  let last = ref None in
  List.iter
    (fun l ->
      let n =
        match l with
        | BComp (n, _) | BCombine (_, n, _) | BKofn (n, _, _, _) -> n
      in
      Hashtbl.replace defs n l;
      last := Some n)
    lines;
  let rec resolve n =
    match Hashtbl.find_opt defs n with
    | None -> err "block: undefined name %s" n
    | Some (BComp (_, e)) -> Rbd.Comp (dist_of_expr mctx e)
    | Some (BCombine (`Series, _, parts)) -> Rbd.Series (List.map resolve parts)
    | Some (BCombine (`Parallel, _, parts)) -> Rbd.Parallel (List.map resolve parts)
    | Some (BKofn (_, k, n', parts)) -> (
        let k = ev_int mctx k and n' = ev_int mctx n' in
        match parts with
        | [ p ] -> Rbd.Kofn (k, n', resolve p)
        | ps -> Rbd.Kofn_list (k, List.map resolve ps))
  in
  match !last with
  | Some top -> resolve top
  | None -> err "block: empty model"

and build_ftree mctx lines =
  let t = Ftree.create () in
  List.iter
    (fun l ->
      match l with
      | FBasic (n, e) -> Ftree.basic t n (dist_of_expr mctx e)
      | FRepeat (n, e) -> Ftree.repeat t n (dist_of_expr mctx e)
      | FTransfer (a, b) -> Ftree.transfer t a b
      | FGate (n, g, inputs) ->
          let kind =
            match (g, inputs) with
            | GAnd, _ -> Ftree.And
            | GOr, _ -> Ftree.Or
            | GNot, _ -> Ftree.Not
            | GNand, _ -> Ftree.Nand
            | GNor, _ -> Ftree.Nor
            | GKofn (k, nn), [ _ ] -> Ftree.Kofn_identical (ev_int mctx k, ev_int mctx nn)
            | GKofn (k, _), _ -> Ftree.Kofn (ev_int mctx k)
            | GNkofn (k, nn), [ _ ] -> Ftree.Nkofn_identical (ev_int mctx k, ev_int mctx nn)
            | GNkofn (k, _), _ -> Ftree.Nkofn (ev_int mctx k)
          in
          Ftree.gate t n kind inputs)
    lines;
  t

and build_mstree mctx lines =
  let t = Mstree.create () in
  let basics = Hashtbl.create 16 in
  let aliases = Hashtbl.create 8 in
  List.iter
    (fun l ->
      match l with
      | MsBasic (c, s, e) ->
          let p = E.mass_at_zero (dist_of_expr mctx e) in
          Mstree.basic t ~comp:c ~state:s p;
          Hashtbl.replace basics (c, s) ()
      | MsTransfer (a, b) -> (
          match String.index_opt b ':' with
          | Some i ->
              let c = String.sub b 0 i
              and s = String.sub b (i + 1) (String.length b - i - 1) in
              Mstree.transfer t a ~comp:c ~state:s;
              Hashtbl.replace aliases a (c, s)
          | None -> err "mstree transfer target %s is not component:state" b)
      | MsGate (n, g, inputs) ->
          let classify inp =
            match Hashtbl.find_opt aliases inp with
            | Some (c, s) -> Mstree.Event (c, s)
            | None -> (
                match String.index_opt inp ':' with
                | Some i ->
                    let c = String.sub inp 0 i
                    and s = String.sub inp (i + 1) (String.length inp - i - 1) in
                    if Hashtbl.mem basics (c, s) then Mstree.Event (c, s)
                    else Mstree.Ref inp
                | None -> Mstree.Ref inp)
          in
          let ins = List.map classify inputs in
          (match g with
          | MsAnd -> Mstree.gate_and t n ins
          | MsOr -> Mstree.gate_or t n ins
          | MsKofn (k, nn) ->
              Mstree.gate_kofn t n ~k:(ev_int mctx k) ~n:(ev_int mctx nn) ins))
    lines;
  t

and build_pms mctx phases =
  let numbered =
    List.map (fun (num, fname, dur) -> (ev mctx num, fname, ev mctx dur)) phases
  in
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) numbered in
  let phase_of (_, fname, dur) =
    let ft =
      match instantiate mctx fname [] with
      | IFtree t -> t
      | _ -> err "pms phase %s is not a fault tree" fname
    in
    let tree, dists = Ftree.structure ft in
    let dist c = try dists c with Invalid_argument _ -> D.inf_dist in
    { Pms.name = fname; duration = dur; tree; dist }
  in
  Pms.make (List.map phase_of sorted)

and build_relgraph mctx edges =
  let g = Relgraph.create () in
  List.iter
    (fun e ->
      let d = dist_of_expr mctx e.re_dist in
      let h = Relgraph.edge ~bidirect:e.re_bidirect g e.re_from e.re_to d in
      List.iter
        (fun (a, b) -> Relgraph.repeat_edge ~bidirect:e.re_bidirect g a b h)
        e.re_transfers)
    edges;
  g

and build_graph mctx edges glines =
  let g = Spg.create () in
  let multpath = ref false in
  List.iter (fun (u, vs) -> List.iter (fun v -> Spg.add_edge g u v) vs) edges;
  let fix_entry n = if String.length n > 1 && String.sub n 0 2 = "E." then "E." else n in
  List.iter
    (fun l ->
      match l with
      | GExit (n, ex) ->
          let ex' =
            match ex with
            | ExProb -> Spg.Prob
            | ExMax -> Spg.Max
            | ExMin -> Spg.Min
            | ExKofn (k, nn) -> Spg.Kofn (ev_int mctx k, ev_int mctx nn)
          in
          Spg.set_exit g (fix_entry n) ex'
      | GProb (u, v, e) -> Spg.set_prob g (fix_entry u) v (ev mctx e)
      | GDist (n, e) -> Spg.set_dist g n (dist_of_expr mctx e)
      | GMultpath -> multpath := true)
    glines;
  ISpg (g, !multpath)

and build_pfqn mctx routing stations chains =
  let stations' =
    List.map
      (fun (n, k) ->
        let kind =
          match k with
          | SkIs e -> Pfqn.Is (ev mctx e)
          | SkFcfs e -> Pfqn.Fcfs (ev mctx e)
          | SkPs e -> Pfqn.Ps (ev mctx e)
          | SkLcfspr e -> Pfqn.Lcfspr (ev mctx e)
          | SkMs (n', r) -> Pfqn.Ms (ev_int mctx n', ev mctx r)
          | SkLds rs -> Pfqn.Lds (List.map (ev mctx) rs)
        in
        (n, kind))
      stations
  in
  let routing' = List.map (fun (u, v, e) -> (u, v, ev mctx e)) routing in
  let customers =
    match chains with
    | (_, e) :: _ -> ev_int mctx e
    | [] -> err "pfqn: missing customer count"
  in
  IPfqn (Pfqn.make ~stations:stations' ~routing:routing', customers)

and build_mpfqn mctx routing stations chains =
  let chain_names = List.map fst chains in
  let stations' =
    List.map
      (fun (n, k, _) ->
        let kind =
          match k with
          | SkIs _ -> Mpfqn.Is
          | SkFcfs _ | SkPs _ | SkLcfspr _ -> Mpfqn.Queueing
          | SkMs _ | SkLds _ -> err "mpfqn: ms/lds stations need a single-chain pfqn"
        in
        (n, kind))
      stations
  in
  let rates =
    List.concat_map
      (fun (n, k, overrides) ->
        let base =
          match k with
          | SkIs e | SkFcfs e | SkPs e | SkLcfspr e -> ev mctx e
          | SkMs _ | SkLds _ -> 0.0
        in
        List.map
          (fun ch ->
            match List.assoc_opt ch overrides with
            | Some (r :: _) -> (n, ch, ev mctx r)
            | _ -> (n, ch, base))
          chain_names)
      stations
  in
  let routing' = List.map (fun (c, u, v, e) -> (c, u, v, ev mctx e)) routing in
  let pops = List.map (fun (c, e) -> (c, ev_int mctx e)) chains in
  IMpfqn (Mpfqn.make ~stations:stations' ~chains:chain_names ~rates ~routing:routing', pops)

(* Edges as (source, target, rate) triples, newest first. *)
and fold_medges mctx st acc edges =
  List.fold_left
    (fun acc e ->
      match e with
      | MEdge (a, b, rate) ->
          let r = ev mctx rate in
          edge st mctx a b r :: acc
      | MEdgeLoop (v, lo, hi, step, body) ->
          expand_loop mctx v lo hi step (fun c acc -> fold_medges c st acc body) acc)
    acc edges

(* [f] folded over the loop's iterations, [v] bound in a cell of its own *)
and expand_loop : 'a. ctx -> string -> expr -> expr -> expr option ->
                  (ctx -> 'a -> 'a) -> 'a -> 'a =
  fun mctx v lo hi step f acc ->
  let lo = ev mctx lo and hi = ev mctx hi in
  let step = match step with Some s -> ev mctx s | None -> if hi >= lo then 1.0 else -1.0 in
  if step = 0.0 then err "loop step is zero";
  let cell = ref lo in
  let c = { mctx with locals = Var (v, cell) :: mctx.locals } in
  let acc = ref acc in
  let x = ref lo in
  let continues x = if step > 0.0 then x <= hi +. 1e-9 else x >= hi -. 1e-9 in
  while continues !x do
    cell := !x;
    acc := f c !acc;
    x := !x +. step
  done;
  !acc

and expand_msets mctx sets = List.rev (fold_msets mctx [] sets)

and fold_msets mctx acc sets =
  List.fold_left
    (fun acc s ->
      match s with
      | MSet (n, e) ->
          let v = ev mctx e in
          (tname_str mctx n, v) :: acc
      | MSetLoop (v, lo, hi, step, body) ->
          expand_loop mctx v lo hi step (fun c acc -> fold_msets c acc body) acc)
    acc sets

and build_rewards mctx idx n rewards =
  match rewards with
  | None -> None
  | Some (sets, default) ->
      let arr = Array.make n (match default with Some e -> ev mctx e | None -> 0.0) in
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt idx name with
          | Some i -> arr.(i) <- v
          | None -> err "reward for unknown state %s" name)
        (expand_msets mctx sets);
      Some (fun i -> arr.(i))

and build_init mctx idx n init =
  match expand_msets mctx init with
  | [] -> None
  | sets ->
      let arr = Array.make n 0.0 in
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt idx name with
          | Some i -> arr.(i) <- arr.(i) +. v
          | None -> err "initial probability for unknown state %s" name)
        sets;
      Some arr

and build_fast mctx idx fast =
  match fast with
  | None -> None
  | Some lines ->
      let resolve tn =
        let n = tname_str mctx tn in
        match Hashtbl.find_opt idx n with
        | Some i -> i
        | None -> err "fastmttf: unknown state %s" n
      in
      let reada = List.filter_map (fun (n, k) -> if k = `Reada then Some (resolve n) else None) lines in
      let readf = List.filter_map (fun (n, k) -> if k = `Readf then Some (resolve n) else None) lines in
      Some (reada, readf)

and build_markov mctx edges rewards init fastmttf =
  let st = new_states () in
  let rates = List.rev (fold_medges mctx st [] edges) in
  let idx = st.index and names = state_names st in
  let n = Array.length names in
  let ctmc = Ctmc.make ~n rates in
  let init = build_init mctx idx n init in
  Ctmc.validate ?init ~names:(fun i -> names.(i)) ctmc;
  let fast =
    match build_fast mctx idx fastmttf with
    | Some (reada, readf) -> Some { Fast_mttf.reada; readf }
    | None -> None
  in
  { mk_ctmc = ctmc;
    mk_index = idx;
    mk_names = names;
    mk_init = init;
    mk_reward = build_rewards mctx idx n rewards;
    mk_fast = fast;
    mk_steady = { pi = None; pi_records = []; pi_seen = 0 } }

and fold_smedges mctx st acc edges =
  List.fold_left
    (fun acc e ->
      match e with
      | SmEdge (a, b, d) ->
          let d = dist_of_expr mctx d in
          edge st mctx a b d :: acc
      | SmEdgeLoop (v, lo, hi, step, body) ->
          expand_loop mctx v lo hi step (fun c acc -> fold_smedges c st acc body) acc)
    acc edges

and build_semimark mctx mode edges rewards init fastmttf =
  let st = new_states () in
  let kernel = List.rev (fold_smedges mctx st [] edges) in
  let idx = st.index and names = state_names st in
  let n = Array.length names in
  let sm = SM.make ~mode ~n kernel in
  { sm;
    sm_index = idx;
    sm_names = names;
    sm_init = build_init mctx idx n init;
    sm_reward = build_rewards mctx idx n rewards;
    sm_fast = build_fast mctx idx fastmttf }

and build_mrgp mctx edges rewards =
  let st = new_states () in
  let exp_edges = ref [] and gen_edges = ref [] in
  List.iter
    (fun (a, kind, b, d) ->
      let i = intern st a in
      let j = intern st b in
      match kind with
      | `NonReg -> (
          match d with
          | Call ("exp", [ [ l ] ]) -> exp_edges := (i, j, ev mctx l) :: !exp_edges
          | _ -> err "mrgp: non-regenerative edges must be exponential")
      | `Reg -> gen_edges := (i, j, dist_of_expr mctx d) :: !gen_edges)
    edges;
  let idx = st.index and count = Hashtbl.length st.index in
  let mg = Mrgp.make ~n:count ~exp_edges:!exp_edges ~gen_edges:!gen_edges in
  let reward =
    match rewards with
    | [] -> None
    | rs ->
        let arr = Array.make count 0.0 in
        List.iter
          (fun (n, e) ->
            match Hashtbl.find_opt idx n with
            | Some i -> arr.(i) <- ev mctx e
            | None -> err "mrgp reward for unknown state %s" n)
          rs;
        Some (fun i -> arr.(i))
  in
  { mg; mg_index = idx; mg_reward = reward }

and build_srn mctx places timed immediate inputs outputs inhibitors =
  let places' = List.map (fun (n, e) -> (n, ev_int mctx e)) places in
  let pindex = Hashtbl.create 16 in
  List.iteri (fun i (n, _) -> Hashtbl.add pindex n i) places';
  let pidx n =
    match Hashtbl.find_opt pindex n with
    | Some i -> i
    | None -> err "srn: unknown place %s" n
  in
  let net_ref : Net.t option ref = ref None in
  let nctx = { mctx with marking = Some net_ref } in
  (* a literal (most arc multiplicities and many rates) reads neither the
     marking nor the context *)
  let at_marking = function
    | Num x -> fun _ -> x
    | e -> fun m -> eval_at nctx m e
  in
  let rate_fn spec =
    match spec with
    | `Ind e | `Gendep e -> at_marking e
    | `Placedep (p, e) ->
        let i = pidx p and r = at_marking e in
        fun m -> float_of_int m.(i) *. r m
  in
  let guard_fn = function
    | None -> fun _ -> true
    | Some g ->
        let g = at_marking g in
        fun m -> truthy (g m)
  in
  let arcs_for tname arcs select =
    List.filter_map
      (fun (a, b, card) ->
        let place, trans = select (a, b) in
        if trans = tname then
          let c = at_marking card in
          Some (pidx place, fun m -> int_of_float (Float.round (c m)))
        else None)
      arcs
  in
  let mk_trans kind (tr : srn_trans) =
    { Net.t_name = tr.st_name;
      kind;
      rate = rate_fn tr.st_rate;
      guard = guard_fn tr.st_guard;
      priority = (match tr.st_priority with Some e -> ev_int mctx e | None -> 0);
      inputs = arcs_for tr.st_name inputs (fun (p, t) -> (p, t));
      outputs = arcs_for tr.st_name outputs (fun (t, p) -> (p, t));
      inhibitors = arcs_for tr.st_name inhibitors (fun (p, t) -> (p, t)) }
  in
  let transitions =
    List.map (mk_trans Net.Timed) timed @ List.map (mk_trans Net.Immediate) immediate
  in
  let net = Net.build ~places:places' ~transitions in
  net_ref := Some net;
  match
    Solve_cache.srn_key mctx ~places:places' ~timed ~immediate ~inputs
      ~outputs ~inhibitors
  with
  | Some key when Sharpe_numerics.Structhash.enabled () -> Solve_cache.solve_srn ~key net
  | _ -> Srn.solve net

and build_pepa mctx past =
  let resolve v =
    try Some (ev mctx (Ident v)) with Eval.Error _ -> None
  in
  let c =
    try Pepa.compile ~resolve past with Pepa.Error m -> err "pepa: %s" m
  in
  List.iter (fun w -> Diag.emit Diag.Warning ~solver:"pepa" w) (Pepa.warnings c);
  { pe_c = c; pe_steady = ref None }

(* --- resolving analysis-call arguments -------------------------------- *)

(* trailing groups are model arguments; the model's key (name and
   arguments) comes with its instance *)
let model_of ctx sys_expr arg_groups =
  let nm = name_of ctx sys_expr in
  let args = List.map (ev ctx) (List.concat arg_groups) in
  ((nm, args), instantiate ctx nm args)

let srn_of ctx sys arg_groups =
  match model_of ctx sys arg_groups with
  | _, ISrn s -> s
  | (nm, _), _ -> err "%s is not an SRN/GSPN model" nm

let reward_of_func ctx (s : Sharpe_petri.Srn.t) fname =
  let c = { ctx with marking = Some (ref (Some (Srn.net s))) } in
  let call = Call (fname, []) in
  fun m -> eval_at c m call

(* the default initial vector: all mass on the first-declared state *)
let first_state n =
  let init = Array.make n 0.0 in
  init.(0) <- 1.0;
  init

let markov_init mi =
  match mi.mk_init with Some init -> init | None -> first_state (Array.length mi.mk_names)

let semimark_init si =
  match si.sm_init with Some init -> init | None -> first_state (Array.length si.sm_names)

let markov_steady ctx key mi =
  use ctx key (fun _ -> Steady) (fun () -> solve_steady ctx.env mi)

let state_idx idx name what =
  match Hashtbl.find_opt idx name with
  | Some i -> i
  | None -> err "unknown %s state %s" what name

let pepa_steady (p : pepa_inst) =
  match !(p.pe_steady) with
  | Some pi -> pi
  | None ->
      let pi = Pepa.steady p.pe_c in
      p.pe_steady := Some pi;
      pi

(* measure errors (unknown local state / action names) become ordinary
   evaluation errors *)
let pepa_measure f = try f () with Pepa.Error m -> err "pepa: %s" m

(* unreliability at [t] of a combinatorial model or an SPG *)
let tvalue_of ctx inst t =
  match inst with
  | IRbd b -> Rbd.unreliability b t
  | IFtree ft -> Ftree.prob_at ft t
  | IPms p -> Pms.unreliability ~side:(side ctx) p t
  | IRelgraph g -> Relgraph.unreliability g t
  | ISpg (g, _) -> E.eval (Spg.completion_cdf g) t
  | _ -> err "tvalue: unsupported model type"

(* --- the dispatcher --------------------------------------------------- *)

let rec dispatch ctx f (groups : expr list list) : float =
  match (f, groups) with
  (* ---- time-dependent unreliability/unavailability ---- *)
  | "tvalue", (t :: sys :: rest_in_g1) :: rest ->
      let t = ev ctx t in
      let _, inst = model_of ctx sys (if rest_in_g1 = [] then rest else [ rest_in_g1 ] @ rest) in
      tvalue_of ctx inst t
  | "tvalue", [ t ] :: sys_grp :: rest -> (
      let t = ev ctx t in
      match sys_grp with
      | sys :: more ->
          let _, inst = model_of ctx sys (if more = [] then rest else [ more ] @ rest) in
          tvalue_of ctx inst t
      | [] -> err "tvalue: missing model")
  (* ---- transient state probability of a chain ---- *)
  | "value", [ t ] :: (sys :: more) :: rest -> (
      let t = ev ctx t in
      let state =
        match more with [ s ] -> name_of ctx s | _ -> err "value: expected a state"
      in
      match model_of ctx sys rest with
      | _, IMarkov mi ->
          let init = markov_init mi in
          let pi = Ctmc.transient mi.mk_ctmc ~init t in
          pi.(state_idx mi.mk_index state "markov")
      | _, ISemimark si ->
          let occ = SM.occupancy si.sm ~init:(semimark_init si) in
          E.eval occ.(state_idx si.sm_index state "semi-markov") t
      | _, IPepa p ->
          pepa_measure (fun () ->
              Pepa.prob p.pe_c (Pepa.transient p.pe_c t) state)
      | (nm, _), _ -> err "value: %s is not a chain model" nm)
  (* ---- means ---- *)
  | "mean", (sys :: more) :: rest -> (
      match model_of ctx sys (if more = [] then rest else [ more ] @ rest) with
      | _, IRbd b -> Rbd.mean_time_to_failure b
      | _, IFtree ft -> Ftree.mean ft
      | _, IRelgraph g -> Relgraph.mean g
      | _, ISpg (g, _) -> Spg.mean g
      | _, IMarkov mi -> Ctmc.mtta mi.mk_ctmc ~init:(markov_init mi)
      | _, ISemimark si ->
          SM.mean_time_to_absorption si.sm ~init:(semimark_init si)
      | (nm, _), _ -> err "mean: unsupported model %s" nm)
  | "var", (sys :: more) :: rest -> (
      match model_of ctx sys (if more = [] then rest else [ more ] @ rest) with
      | _, ISpg (g, _) -> Spg.variance g
      | (nm, _), _ -> err "var: unsupported model %s" nm)
  (* ---- probabilities of combinatorial systems ---- *)
  | "sysprob", (sys :: more) :: rest -> (
      let gate = match more with [ g ] -> Some (name_of ctx g) | _ -> None in
      match model_of ctx sys rest with
      | _, IFtree ft -> Ftree.sysprob ?gate ft
      | _, IMstree ms -> (
          match gate with
          | Some g -> Mstree.sysprob ms g
          | None -> err "sysprob: multi-state trees need a top:state gate")
      | _, IRbd b -> Rbd.unreliability b 0.0
      | _, IRelgraph g -> Relgraph.unreliability g 0.0
      | (nm, _), _ -> err "sysprob: unsupported model %s" nm)
  | "pzero", (sys :: more) :: rest -> (
      match model_of ctx sys (if more = [] then rest else [ more ] @ rest) with
      | _, IFtree ft -> Ftree.sysprob ft
      | _, IRbd b -> Rbd.unreliability b 0.0
      | _, IRelgraph g -> Relgraph.unreliability g 0.0
      | (nm, _), _ -> err "pzero: unsupported model %s" nm)
  (* ---- steady-state probabilities ---- *)
  | "prob", (sys :: more) :: rest -> (
      let state =
        match more with [ s ] -> name_of ctx s | _ -> err "prob: expected a state"
      in
      match model_of ctx sys rest with
      | key, IMarkov mi ->
          let c = mi.mk_ctmc in
          if Ctmc.partly_absorbing c then
            (Ctmc.absorption_probs c ~init:(markov_init mi)).(state_idx mi.mk_index state "markov")
          else (markov_steady ctx key mi).(state_idx mi.mk_index state "markov")
      | _, ISemimark si ->
          (SM.steady_state si.sm).(state_idx si.sm_index state "semi-markov")
      | _, IMrgp gi -> Mrgp.prob gi.mg (state_idx gi.mg_index state "mrgp")
      | _, IPepa p ->
          pepa_measure (fun () -> Pepa.prob p.pe_c (pepa_steady p) state)
      | (nm, _), _ -> err "prob: %s is not a chain model" nm)
  | "exrss", (sys :: more) :: rest -> (
      match model_of ctx sys (if more = [] then rest else [ more ] @ rest) with
      | ((nm, _) as key), IMarkov mi -> (
          match mi.mk_reward with
          | Some r ->
              let pi = markov_steady ctx key mi in
              let acc = ref 0.0 in
              Array.iteri (fun i p -> acc := !acc +. (p *. r i)) pi;
              !acc
          | None -> err "exrss: model %s has no reward section" nm)
      | (nm, _), ISemimark si -> (
          match si.sm_reward with
          | Some r -> SM.expected_reward_ss si.sm ~reward:r
          | None -> err "exrss: model %s has no reward section" nm)
      | (nm, _), IMrgp gi -> (
          match gi.mg_reward with
          | Some r -> Mrgp.expected_reward_ss gi.mg ~reward:r
          | None -> err "exrss: model %s has no reward section" nm)
      | (nm, _), _ -> err "exrss: %s is not a chain model" nm)
  | ("exrt" | "cexrt"), (t :: sys :: more) :: rest -> (
      let tv = ev ctx t in
      match model_of ctx sys (if more = [] then rest else [ more ] @ rest) with
      | (nm, _), IMarkov mi -> (
          match mi.mk_reward with
          | Some r ->
              let init = markov_init mi in
              if f = "exrt" then Ctmc.expected_reward_at mi.mk_ctmc ~init ~reward:r tv
              else Ctmc.cumulative_reward mi.mk_ctmc ~init ~reward:r tv
          | None -> err "%s: model %s has no reward section" f nm)
      | (nm, _), _ -> err "%s: %s is not a Markov reward model" f nm)
  (* ---- MTTF ---- *)
  | "fastmttf", (sys :: more) :: rest -> (
      match model_of ctx sys (if more = [] then rest else [ more ] @ rest) with
      | (nm, _), IMarkov mi -> (
          match mi.mk_fast with
          | Some spec -> Fast_mttf.mttf_fast mi.mk_ctmc ~init:(markov_init mi) spec
          | None -> err "fastmttf: model %s has no fastmttf section" nm)
      | (nm, _), ISemimark si -> (
          match si.sm_fast with
          | Some (_, readf) -> SM.mttf si.sm ~init:(semimark_init si) ~readf
          | None -> err "fastmttf: model %s has no fastmttf section" nm)
      | (nm, _), _ -> err "fastmttf: %s is not a chain model" nm)
  (* ---- importance measures ---- *)
  | "bimpt", [ t ] :: (sys :: ev_names) :: rest ->
      importance ctx `Birnbaum (Some (ev ctx t)) sys ev_names rest
  | "cimpt", [ t ] :: (sys :: ev_names) :: rest ->
      importance ctx `Criticality (Some (ev ctx t)) sys ev_names rest
  | "simpt", (sys :: ev_names) :: rest ->
      importance ctx `Structural None sys ev_names rest
  (* ---- SRN measures ---- *)
  | "srn_exrss", (sys :: extra) :: rf :: rest ->
      let s = srn_of ctx sys (if extra = [] then rest else [ extra ] @ rest) in
      Srn.exrss s (reward_of_func ctx s (reward_name ctx rf))
  | ("srn_exrt" | "srn_cexrt" | "srn_ave_cexrt"), (t :: sys :: extra) :: rf :: rest ->
      let tv = ev ctx t in
      let s = srn_of ctx sys (if extra = [] then rest else [ extra ] @ rest) in
      let r = reward_of_func ctx s (reward_name ctx rf) in
      (match f with
      | "srn_exrt" -> Srn.exrt s r tv
      | "srn_cexrt" -> Srn.cexrt s r tv
      | _ -> Srn.ave_cexrt s r tv)
  | "srn_cexrinf", (sys :: extra) :: rf :: rest ->
      let s = srn_of ctx sys (if extra = [] then rest else [ extra ] @ rest) in
      Srn.cexrinf s (reward_of_func ctx s (reward_name ctx rf))
  | "mtta", (sys :: more) :: rest -> (
      match model_of ctx sys (if more = [] then rest else [ more ] @ rest) with
      | _, ISrn s -> Srn.mtta s
      | _, IMarkov mi -> Ctmc.mtta mi.mk_ctmc ~init:(markov_init mi)
      | (nm, _), _ -> err "mtta: unsupported model %s" nm)
  (* ---- GSPN / queueing measures sharing names ---- *)
  | ("util" | "tput" | "qlength" | "rtime" | "mutil" | "mtput" | "mqlength" | "mrtime"
    | "etok" | "prempty"), (sys :: more) :: rest -> (
      let target =
        match more with [ x ] -> name_of ctx x | _ -> err "%s: expected a station/transition/place" f
      in
      match model_of ctx sys rest with
      | _, ISrn s -> (
          match f with
          | "util" -> Srn.util s target
          | "tput" -> Srn.tput s target
          | "etok" -> Srn.etok s target
          | "prempty" -> Srn.prempty s target
          | _ -> err "%s: not a GSPN measure" f)
      | _, IPepa p -> (
          match f with
          | "tput" ->
              pepa_measure (fun () ->
                  Pepa.throughput p.pe_c (pepa_steady p) target)
          | _ -> err "%s: pepa models support tput (and prob/value)" f)
      | _, IPfqn (net, customers) -> (
          match f with
          | "util" | "mutil" -> Pfqn.utilization net ~customers target
          | "tput" | "mtput" -> Pfqn.throughput net ~customers target
          | "qlength" | "mqlength" -> Pfqn.qlength net ~customers target
          | "rtime" | "mrtime" -> Pfqn.rtime net ~customers target
          | _ -> err "%s: not a queueing measure" f)
      | _, IMpfqn (net, pops) -> (
          match f with
          | "util" | "mutil" -> Mpfqn.station_utilization net ~populations:pops target
          | "qlength" | "mqlength" -> Mpfqn.station_qlength net ~populations:pops target
          | "tput" | "mtput" ->
              List.fold_left
                (fun acc (ch, _) ->
                  acc +. Mpfqn.chain_throughput net ~populations:pops ~chain:ch ~station:target)
                0.0 pops
          | _ -> err "%s: not a queueing measure" f)
      | (nm, _), _ -> err "%s: unsupported model %s" f nm)
  | _ -> err "unknown function %s" f

and reward_name ctx rf =
  match rf with
  | [ r ] -> name_of ctx r
  | _ -> err "expected a reward function name"

and importance ctx kind time sys ev_names rest =
  match (model_of ctx sys rest, ev_names) with
  | (_, IFtree ft), [ e ] -> (
      let en = name_of ctx e in
      match (kind, time) with
      | `Birnbaum, Some t -> Ftree.birnbaum ft en t
      | `Criticality, Some t -> Ftree.criticality ft en t
      | `Structural, _ -> Ftree.structural ft en
      | _ -> err "importance: missing time")
  | (_, IRelgraph g), [ a; b ] -> (
      let u = name_of ctx a and v = name_of ctx b in
      match (kind, time) with
      | `Birnbaum, Some t -> Relgraph.birnbaum g u v t
      | `Criticality, Some t -> Relgraph.criticality g u v t
      | `Structural, _ -> Relgraph.structural g u v
      | _ -> err "importance: missing time")
  | ((nm, _), _), _ -> err "importance measures: unsupported model %s" nm

(* --- statement-level printers ----------------------------------------- *)

let pp_cuts ctx label cuts pp_item =
  ctx.env.print (Printf.sprintf "%s:\n" label);
  List.iteri
    (fun i cut ->
      ctx.env.print
        (Printf.sprintf "  %d: { %s }\n" (i + 1) (String.concat ", " (List.map pp_item cut))))
    cuts

let print_analysis ctx text e =
  match e with
  | Call (("cdf" | "lcdf") as which, (sys :: more) :: rest) -> (
      let _, inst = model_of ctx sys rest in
      let print_expo f =
        ctx.env.print (Printf.sprintf "%s:\n  %s\n" text (E.to_string f));
        (try
           ctx.env.print
             (Printf.sprintf "  mean: %s\n" (fmt_num ctx.env (E.mean f)))
         with Invalid_argument _ -> ())
      in
      match inst with
      | IRbd b -> print_expo (Rbd.failure_cdf b)
      | IFtree ft ->
          let gate = match more with [ g ] -> Some (name_of ctx g) | _ -> None in
          print_expo (Ftree.cdf ?gate ft)
      | IRelgraph g -> print_expo (Relgraph.cdf g)
      | ISpg (g, _) -> print_expo (Spg.completion_cdf g)
      | IMstree ms -> (
          match more with
          | [ g ] ->
              ctx.env.print
                (Printf.sprintf "%s: %s\n" text
                   (fmt_num ctx.env (Mstree.sysprob ms (name_of ctx g))))
          | _ -> err "%s: multi-state trees need a top:state" which)
      | IMarkov mi -> (
          let init = markov_init mi in
          let probs = Acyclic.state_probabilities mi.mk_ctmc ~init in
          match more with
          | [ s ] -> print_expo probs.(state_idx mi.mk_index (name_of ctx s) "markov")
          | _ ->
              (* overall absorption CDF *)
              let total =
                List.fold_left
                  (fun acc s -> E.add acc probs.(s))
                  E.zero
                  (Ctmc.absorbing_states mi.mk_ctmc)
              in
              print_expo total)
      | ISemimark si -> (
          let fp = SM.first_passage si.sm ~init:(semimark_init si) in
          match more with
          | [ s ] -> print_expo fp.(state_idx si.sm_index (name_of ctx s) "semi-markov")
          | _ -> err "%s: semi-markov needs a state" which)
      | _ -> err "%s: unsupported model type" which)
  | Call ("pqcdf", (sys :: _) :: rest) ->
      let _, inst = model_of ctx sys rest in
      (match inst with
      | IRelgraph g -> ctx.env.print (Printf.sprintf "%s:\n  %s\n" text (Relgraph.pqcdf g))
      | _ -> err "pqcdf: only reliability graphs")
  | Call ("mincuts", (sys :: _) :: rest) -> (
      let _, inst = model_of ctx sys rest in
      match inst with
      | IFtree ft -> pp_cuts ctx text (Ftree.mincuts ft) Fun.id
      | IRelgraph g ->
          pp_cuts ctx text (Relgraph.mincuts g) (fun (u, v) -> u ^ "->" ^ v)
      | _ -> err "mincuts: unsupported model type")
  | Call ("minpaths", (sys :: _) :: rest) -> (
      let _, inst = model_of ctx sys rest in
      match inst with
      | IRelgraph g ->
          pp_cuts ctx text (Relgraph.minpaths g) (fun (u, v) -> u ^ "->" ^ v)
      | _ -> err "minpaths: only reliability graphs")
  | Call ("multpath", (sys :: _) :: rest) -> (
      let _, inst = model_of ctx sys rest in
      match inst with
      | ISpg (g, _) ->
          ctx.env.print (Printf.sprintf "%s:\n" text);
          List.iteri
            (fun i (p, cdf) ->
              ctx.env.print
                (Printf.sprintf "  path %d: prob %s, cdf %s\n" (i + 1)
                   (fmt_num ctx.env p) (E.to_string cdf)))
            (Spg.multipath g)
      | _ -> err "multpath: only series-parallel graphs")
  | _ -> err "unsupported analysis statement"

let init_done =
  dispatch_ref := dispatch;
  print_analysis_ref := print_analysis;
  true
