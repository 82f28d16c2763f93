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

(* The edge [a b x], its value read by [value].  Value, then target,
   then source is the order an edge's expressions are read in, which
   fixes the first error and the order of diagnostics; states are
   numbered source first. *)
let edge st ctx value (a, b, x) =
  let x = value ctx x in
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
  | MMarkov { chain; _ } ->
      let ctmc, ch =
        build_chain mctx chain ~value:ev ~make:(fun n edges -> Ctmc.make ~n edges)
          ~check:(fun ctmc init names -> Ctmc.validate ?init ~names:(Array.get names) ctmc)
      in
      let steady = { pi = None; pi_records = []; pi_seen = 0 } in
      IMarkov { mk_ctmc = ctmc; mk_chain = ch; mk_steady = steady }
  | MSemimark { mode; chain; _ } ->
      let sm, ch =
        build_chain mctx chain ~value:dist_of_expr ~make:(fun n edges -> SM.make ~mode ~n edges)
          ~check:(fun _ _ _ -> ())
      in
      ISemimark { sm; sm_chain = ch }
  | MMrgp { edges; rewards; _ } -> IMrgp (build_mrgp mctx edges rewards)
  | MSrn { name; places; timed; immediate; inputs; outputs; inhibitors; _ } ->
      ISrn
        { srn = build_srn mctx name places timed immediate inputs outputs inhibitors;
          rewards = Hashtbl.create 4 }
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
      | GMultpath -> ())
    glines;
  ISpg g

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

(* [item] folded over [items] in order, a loop's body once per value of
   its variable, which is bound in a cell of its own *)
and fold_looped : 'a 'acc. ctx -> (ctx -> 'acc -> 'a -> 'acc) -> 'acc -> 'a looped list -> 'acc =
  fun mctx item acc items ->
  List.fold_left
    (fun acc -> function
      | Item x -> item mctx acc x
      | Loop (v, lo, hi, step, body) ->
          let lo = ev mctx lo and hi = ev mctx hi in
          let step = match step with Some s -> ev mctx s | None -> if hi >= lo then 1.0 else -1.0 in
          if step = 0.0 then err "loop step is zero";
          let cell = ref lo in
          let c = { mctx with locals = Var (v, cell) :: mctx.locals } in
          let continues x = if step > 0.0 then x <= hi +. 1e-9 else x >= hi -. 1e-9 in
          let rec go x acc =
            if continues x then begin
              cell := x;
              go (x +. step) (fold_looped c item acc body)
            end
            else acc
          in
          go lo acc)
    acc items

(* (name, value) of each reward or init line, in order; a line reads its
   value, then its name *)
and expand_sets mctx sets =
  List.rev
    (fold_looped mctx
       (fun c acc (n, e) ->
         let v = ev c e in
         (tname_str c n, v) :: acc)
       [] sets)

(* [f i v] for each expanded line [(name, v)], [i] the index of [name] *)
and at_states idx what lines f =
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt idx name with
      | Some i -> f i v
      | None -> err "%s for unknown state %s" what name)
    lines

and build_rewards mctx idx n rewards =
  match rewards with
  | None -> None
  | Some (sets, default) ->
      let arr = Array.make n (match default with Some e -> ev mctx e | None -> 0.0) in
      at_states idx "reward" (expand_sets mctx sets) (fun i v -> arr.(i) <- v);
      Some (fun i -> arr.(i))

and build_init mctx idx n init =
  match expand_sets mctx init with
  | [] -> None
  | lines ->
      let arr = Array.make n 0.0 in
      at_states idx "initial probability" lines (fun i v -> arr.(i) <- arr.(i) +. v);
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
      Some { Fast_mttf.reada; readf }

(* A markov or semimark chain: [value] reads an edge's value, [make]
   builds the solver object from the state count and the edges, and
   [check] validates it against the initial vector.  They are read in
   that order, the initial vector after [make], then the fastmttf states
   and the rewards: the order fixes the first error and the order of
   diagnostics. *)
and build_chain : 'v 's. ctx -> chain -> value:(ctx -> expr -> 'v) ->
                  make:(int -> (int * int * 'v) list -> 's) ->
                  check:('s -> float array option -> string array -> unit) -> 's * chain_inst =
  fun mctx { edges; rewards; init; fastmttf } ~value ~make ~check ->
  let st = new_states () in
  let edges = fold_looped mctx (fun c acc e -> edge st c value e :: acc) [] edges in
  let idx = st.index and names = state_names st in
  let n = Array.length names in
  let solver = make n (List.rev edges) in
  let init = build_init mctx idx n init in
  check solver init names;
  let fast = build_fast mctx idx fastmttf in
  let reward = build_rewards mctx idx n rewards in
  (* without initial probabilities, all mass is on the first state *)
  let init =
    match init with Some v -> v | None -> Array.init n (fun i -> if i = 0 then 1.0 else 0.0)
  in
  (solver, { ch_index = idx; ch_names = names; ch_init = init; ch_reward = reward; ch_fast = fast })

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

and build_srn mctx name places timed immediate inputs outputs inhibitors =
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
  let net = Net.named name (Net.build ~places:places' ~transitions) in
  net_ref := Some net;
  match
    Solve_cache.srn_key mctx ~places:places' ~timed ~immediate ~inputs
      ~outputs ~inhibitors
  with
  | Some key -> Solve_cache.solve_srn ~key net
  | None -> Srn.solve net

and build_pepa mctx past =
  let resolve v =
    try Some (ev mctx (Ident v)) with Eval.Error _ -> None
  in
  let c =
    try Pepa.compile ~resolve past with Pepa.Error m -> err "pepa: %s" m
  in
  List.iter (fun w -> Diag.emit Diag.Warning ~solver:"pepa" w) (Pepa.warnings c);
  { pe_c = c; pe_steady = ref None }

(* --- what the measures share ------------------------------------------ *)

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

(* --- the builtin table ------------------------------------------------- *)

(* How a builtin reads its argument groups.  [t] is a time and [sys] a
   model, whose own arguments follow it in its group and in the groups
   after: only in the groups after for [Sys_names] and [T_sys_names],
   where the names in its group are its targets (a state, station,
   transition, place, gate, event or edge). *)
type shape =
  | Args of int (* f(x1, ..., xn) *)
  | Unbound of int (* Args, while no global binding has its name *)
  | Binder (* f(i, lo, hi, e) *)
  | Transition (* f(t) of the net being evaluated *)
  | Sys (* f(sys {, args} {; args}) *)
  | T_sys (* f(t, sys {, args} {; args}) *)
  | Tvalue (* T_sys, or f(t; sys {, args} {; args}) *)
  | Sys_names (* f(sys {, targets} {; args}) *)
  | T_sys_names (* f(t; sys {, targets} {; args}) *)
  | Srn (* f(sys {, args}; reward {; args}) *)
  | T_srn (* f(t, sys {, args}; reward {; args}) *)

(* A measure's or a printer's call, read against its shape *)
type call = {
  ctx : ctx;
  f : string; (* the name it was called by *)
  text : string; (* a printer's statement *)
  t : float; (* 0 where the shape has no time *)
  key : string * float list; (* the model's name and arguments *)
  inst : instance;
  targets : string list;
  reward : expr list;
}

(* A model kind a measure or printer accepts, and what it does there *)
type 'r case = { kind : string; run : call -> 'r option }

let case kind payload f = { kind; run = (fun c -> Option.map (f c) (payload c.inst)) }
let block f = case "block" (function IRbd x -> Some x | _ -> None) f
let ftree f = case "ftree" (function IFtree x -> Some x | _ -> None) f
let mstree f = case "mstree" (function IMstree x -> Some x | _ -> None) f
let pms f = case "pms" (function IPms x -> Some x | _ -> None) f
let relgraph f = case "relgraph" (function IRelgraph x -> Some x | _ -> None) f
let graph f = case "graph" (function ISpg x -> Some x | _ -> None) f
let pfqn f = case "pfqn" (function IPfqn (x, n) -> Some (x, n) | _ -> None) f
let mpfqn f = case "mpfqn" (function IMpfqn (x, p) -> Some (x, p) | _ -> None) f
let markov f = case "markov" (function IMarkov x -> Some x | _ -> None) f
let semimark f = case "semimark" (function ISemimark x -> Some x | _ -> None) f
let mrgp f = case "mrgp" (function IMrgp x -> Some x | _ -> None) f
let srn f = case "srn" (function ISrn x -> Some x | _ -> None) f
let pepa f = case "pepa" (function IPepa x -> Some x | _ -> None) f

type entry = {
  names : string list;
  shape : shape;
  pure : bool; (* a function of its arguments alone *)
  does : does;
}

and does =
  | Compute of (ctx -> expr list -> float) (* given the call's one group *)
  | Value of float case list
  | Print of unit case list

let nth ctx args i = ev ctx (List.nth args i)
let math name arity f = { names = [ name ]; shape = Args arity; pure = true; does = Compute f }
let unary name f = math name 1 (fun ctx a -> f (nth ctx a 0))
let measure names shape cases = { names; shape; pure = false; does = Value cases }
let printer names cases = { names; shape = Sys_names; pure = false; does = Print cases }

let sum ctx a =
  let v = name_of ctx (List.hd a) in
  let lo = nth ctx a 1 and hi = nth ctx a 2 and body = List.nth a 3 in
  let cell = ref lo and acc = ref 0.0 in
  let ctx' = { ctx with locals = Var (v, cell) :: ctx.locals } in
  while !cell <= hi +. 1e-9 do
    Deadline.check ();
    acc := !acc +. ev ctx' body;
    cell := !cell +. 1.0
  done;
  !acc

(* the call's one target, or its gate if it has one *)
let target c =
  match c.targets with [ x ] -> x | _ -> err "%s: expected one name after the model" c.f

let gate c = match c.targets with [ x ] -> Some x | _ -> None

let section c what = function
  | Some x -> x
  | None -> err "%s: model %s has no %s section" c.f (fst c.key) what

(* The reward vectors' traffic: one hit or miss per query, not per
   marking *)
let reward_vectors = Sharpe_numerics.Structhash.counter "srn_reward"

(* The values of the reward function named in the call's reward group:
   the vector filed on the instance under its name while what the
   reward can read is unchanged, else a new one, filed where its
   definition pins that down and dropped after the query where it does
   not.  A filed vector's reads are the build in progress's reads too,
   whether it hit or was just filed, as an instance's are. *)
let srn_reward c si =
  match c.reward with
  | [ r ] -> (
      let name = name_of c.ctx r in
      let call = Call (name, []) in
      let rctx = { c.ctx with marking = Some (ref (Some (Srn.net si.srn))) } in
      let f m = eval_at rctx m call in
      match Hashtbl.find_opt si.rewards name with
      | Some v when reads_hold c.ctx.env v.reads ->
          Sharpe_numerics.Structhash.count reward_vectors ~hit:true;
          add_reads c.ctx (Array.to_seq v.reads) None;
          Srn.with_function v.vector f
      | _ ->
          Sharpe_numerics.Structhash.count reward_vectors ~hit:false;
          let vector = Srn.reward si.srn f in
          (match Solve_cache.reward_reads c.ctx name with
          | Some reads ->
              Hashtbl.replace si.rewards name { vector; reads };
              add_reads c.ctx (Array.to_seq reads) None
          | None -> Hashtbl.remove si.rewards name);
          vector)
  | _ -> err "expected a reward function name"

let print_expo c f =
  let env = c.ctx.env in
  env.print (Printf.sprintf "%s:\n  %s\n" c.text (E.to_string f));
  try env.print (Printf.sprintf "  mean: %s\n" (fmt_num env (E.mean f)))
  with Invalid_argument _ -> ()

let pp_cuts c cuts pp_item =
  c.ctx.env.print (Printf.sprintf "%s:\n" c.text);
  List.iteri
    (fun i cut ->
      c.ctx.env.print
        (Printf.sprintf "  %d: { %s }\n" (i + 1) (String.concat ", " (List.map pp_item cut))))
    cuts

let arrow (u, v) = u ^ "->" ^ v

(* cases more than one builtin shares *)
let importance of_event of_edge =
  [ ftree (fun c ft -> of_event ft (target c) c.t);
    relgraph (fun c g ->
        match c.targets with
        | [ u; v ] -> of_edge g u v c.t
        | _ -> err "%s: expected an edge's two nodes after the model" c.f) ]

let unreliability_at_0 =
  [ block (fun _ b -> Rbd.unreliability b 0.0); relgraph (fun _ g -> Relgraph.unreliability g 0.0) ]

let markov_mtta = markov (fun _ mi -> Ctmc.mtta mi.mk_ctmc ~init:mi.mk_chain.ch_init)

let markov_reward at =
  markov (fun c { mk_ctmc; mk_chain = ch; _ } ->
      at mk_ctmc ~init:ch.ch_init ~reward:(section c "reward" ch.ch_reward) c.t)

let pfqn_util = pfqn (fun c (n, customers) -> Pfqn.utilization n ~customers (target c))
let mpfqn_util = mpfqn (fun c (n, pops) -> Mpfqn.station_utilization n ~populations:pops (target c))
let pfqn_tput = pfqn (fun c (n, customers) -> Pfqn.throughput n ~customers (target c))

let mpfqn_tput =
  mpfqn (fun c (n, pops) ->
      let station = target c in
      List.fold_left
        (fun acc (ch, _) -> acc +. Mpfqn.chain_throughput n ~populations:pops ~chain:ch ~station)
        0.0 pops)

let table =
  [ unary "acos" acos; unary "asin" asin; unary "atan" atan; unary "ceil" Float.ceil;
    unary "cos" cos; unary "fabs" Float.abs; unary "floor" Float.floor; unary "ln" log;
    unary "log" log10; unary "sin" sin; unary "sqrt" sqrt; unary "tan" tan;
    { (unary "exp" exp) with shape = Unbound 1 };
    math "min" 2 (fun ctx a -> Float.min (nth ctx a 0) (nth ctx a 1));
    math "max" 2 (fun ctx a -> Float.max (nth ctx a 0) (nth ctx a 1));
    math "weibull" 3 (fun ctx a ->
        let a = nth ctx a 0 and b = nth ctx a 1 and t = nth ctx a 2 in
        1.0 -. exp (-.a *. Float.pow t b));
    { names = [ "sum" ]; shape = Binder; pure = false; does = Compute sum };
    { names = [ "Rate" ]; shape = Transition; pure = false;
      does =
        Compute
          (fun ctx a ->
            let t = name_of ctx (List.hd a) in
            Net.rate_in (marked_net ctx "Rate" t) !(Domain.DLS.get current_marking) t) };
    (* time-dependent unreliability/unavailability *)
    measure [ "tvalue" ] Tvalue
      [ block (fun c b -> Rbd.unreliability b c.t);
        ftree (fun c ft -> Ftree.prob_at ft c.t);
        pms (fun c p -> Pms.unreliability ~side:(side c.ctx) p c.t);
        relgraph (fun c g -> Relgraph.unreliability g c.t);
        graph (fun c g -> E.eval (Spg.completion_cdf g) c.t) ];
    (* transient state probability of a chain *)
    measure [ "value" ] T_sys_names
      [ markov (fun c mi ->
            let pi = Ctmc.transient mi.mk_ctmc ~init:mi.mk_chain.ch_init c.t in
            pi.(state_idx mi.mk_chain.ch_index (target c) "markov"));
        semimark (fun c si ->
            let occ = SM.occupancy si.sm ~init:si.sm_chain.ch_init in
            E.eval occ.(state_idx si.sm_chain.ch_index (target c) "semi-markov") c.t);
        pepa (fun c p ->
            pepa_measure (fun () -> Pepa.prob p.pe_c (Pepa.transient p.pe_c c.t) (target c))) ];
    measure [ "mean" ] Sys
      [ block (fun _ b -> Rbd.mean_time_to_failure b);
        ftree (fun _ ft -> Ftree.mean ft);
        relgraph (fun _ g -> Relgraph.mean g);
        graph (fun _ g -> Spg.mean g);
        markov_mtta;
        semimark (fun _ si -> SM.mean_time_to_absorption si.sm ~init:si.sm_chain.ch_init) ];
    measure [ "var" ] Sys [ graph (fun _ g -> Spg.variance g) ];
    (* probabilities of combinatorial systems *)
    measure [ "sysprob" ] Sys_names
      (ftree (fun c ft -> Ftree.sysprob ?gate:(gate c) ft)
      :: mstree (fun c ms ->
             match gate c with
             | Some g -> Mstree.sysprob ms g
             | None -> err "%s: multi-state trees need a top:state gate" c.f)
      :: unreliability_at_0);
    measure [ "pzero" ] Sys (ftree (fun _ ft -> Ftree.sysprob ft) :: unreliability_at_0);
    (* steady-state probabilities and rewards *)
    measure [ "prob" ] Sys_names
      [ markov (fun c mi ->
            let ch = mi.mk_chain and cm = mi.mk_ctmc in
            let i = state_idx ch.ch_index (target c) "markov" in
            if Ctmc.partly_absorbing cm then (Ctmc.absorption_probs cm ~init:ch.ch_init).(i)
            else (markov_steady c.ctx c.key mi).(i));
        semimark (fun c si ->
            (SM.steady_state si.sm).(state_idx si.sm_chain.ch_index (target c) "semi-markov"));
        mrgp (fun c gi -> Mrgp.prob gi.mg (state_idx gi.mg_index (target c) "mrgp"));
        pepa (fun c p -> pepa_measure (fun () -> Pepa.prob p.pe_c (pepa_steady p) (target c))) ];
    measure [ "exrss" ] Sys
      [ markov (fun c mi ->
            let r = section c "reward" mi.mk_chain.ch_reward in
            let pi = markov_steady c.ctx c.key mi in
            let acc = ref 0.0 in
            Array.iteri (fun i p -> acc := !acc +. (p *. r i)) pi;
            !acc);
        semimark (fun c si ->
            SM.expected_reward_ss si.sm ~reward:(section c "reward" si.sm_chain.ch_reward));
        mrgp (fun c gi -> Mrgp.expected_reward_ss gi.mg ~reward:(section c "reward" gi.mg_reward))
      ];
    measure [ "exrt" ] T_sys [ markov_reward (fun m -> Ctmc.expected_reward_at m) ];
    measure [ "cexrt" ] T_sys [ markov_reward (fun m -> Ctmc.cumulative_reward m) ];
    (* MTTF *)
    measure [ "fastmttf" ] Sys
      [ markov (fun c mi ->
            let spec = section c "fastmttf" mi.mk_chain.ch_fast in
            Fast_mttf.mttf_fast mi.mk_ctmc ~init:mi.mk_chain.ch_init spec);
        semimark (fun c si ->
            let spec = section c "fastmttf" si.sm_chain.ch_fast in
            SM.mttf si.sm ~init:si.sm_chain.ch_init ~readf:spec.readf) ];
    measure [ "mtta" ] Sys [ srn (fun _ s -> Srn.mtta s.srn); markov_mtta ];
    (* importance measures *)
    measure [ "bimpt" ] T_sys_names (importance Ftree.birnbaum Relgraph.birnbaum);
    measure [ "cimpt" ] T_sys_names (importance Ftree.criticality Relgraph.criticality);
    measure [ "simpt" ] Sys_names
      (importance (fun ft e _ -> Ftree.structural ft e) (fun g u v _ -> Relgraph.structural g u v));
    (* SRN measures *)
    measure [ "srn_exrss" ] Srn [ srn (fun c s -> Srn.exrss s.srn (srn_reward c s)) ];
    measure [ "srn_exrt" ] T_srn [ srn (fun c s -> Srn.exrt s.srn (srn_reward c s) c.t) ];
    measure [ "srn_cexrt" ] T_srn [ srn (fun c s -> Srn.cexrt s.srn (srn_reward c s) c.t) ];
    measure [ "srn_ave_cexrt" ] T_srn
      [ srn (fun c s -> Srn.ave_cexrt s.srn (srn_reward c s) c.t) ];
    measure [ "srn_cexrinf" ] Srn [ srn (fun c s -> Srn.cexrinf s.srn (srn_reward c s)) ];
    (* GSPN and queueing measures sharing names *)
    measure [ "util" ] Sys_names
      [ srn (fun c s -> Srn.util s.srn (target c)); pfqn_util; mpfqn_util ];
    measure [ "mutil" ] Sys_names [ pfqn_util; mpfqn_util ];
    measure [ "tput" ] Sys_names
      [ srn (fun c s -> Srn.tput s.srn (target c));
        pepa (fun c p ->
            pepa_measure (fun () -> Pepa.throughput p.pe_c (pepa_steady p) (target c)));
        pfqn_tput;
        mpfqn_tput ];
    measure [ "mtput" ] Sys_names [ pfqn_tput; mpfqn_tput ];
    measure [ "qlength"; "mqlength" ] Sys_names
      [ pfqn (fun c (n, customers) -> Pfqn.qlength n ~customers (target c));
        mpfqn (fun c (n, pops) -> Mpfqn.station_qlength n ~populations:pops (target c)) ];
    measure [ "rtime"; "mrtime" ] Sys_names
      [ pfqn (fun c (n, customers) -> Pfqn.rtime n ~customers (target c)) ];
    measure [ "etok" ] Sys_names [ srn (fun c s -> Srn.etok s.srn (target c)) ];
    measure [ "prempty" ] Sys_names [ srn (fun c s -> Srn.prempty s.srn (target c)) ];
    (* statement-level printers *)
    printer [ "cdf"; "lcdf" ]
      [ block (fun c b -> print_expo c (Rbd.failure_cdf b));
        ftree (fun c ft -> print_expo c (Ftree.cdf ?gate:(gate c) ft));
        relgraph (fun c g -> print_expo c (Relgraph.cdf g));
        graph (fun c g -> print_expo c (Spg.completion_cdf g));
        mstree (fun c ms ->
            match gate c with
            | Some g ->
                c.ctx.env.print
                  (Printf.sprintf "%s: %s\n" c.text (fmt_num c.ctx.env (Mstree.sysprob ms g)))
            | None -> err "%s: multi-state trees need a top:state" c.f);
        markov (fun c mi ->
            let probs = Acyclic.state_probabilities mi.mk_ctmc ~init:mi.mk_chain.ch_init in
            match gate c with
            | Some s -> print_expo c probs.(state_idx mi.mk_chain.ch_index s "markov")
            | None ->
                (* overall absorption CDF *)
                let absorbed = List.map (fun s -> probs.(s)) (Ctmc.absorbing_states mi.mk_ctmc) in
                print_expo c (List.fold_left E.add E.zero absorbed));
        semimark (fun c si ->
            let fp = SM.first_passage si.sm ~init:si.sm_chain.ch_init in
            match gate c with
            | Some s -> print_expo c fp.(state_idx si.sm_chain.ch_index s "semi-markov")
            | None -> err "%s: semi-markov needs a state" c.f) ];
    printer [ "pqcdf" ]
      [ relgraph (fun c g ->
            c.ctx.env.print (Printf.sprintf "%s:\n  %s\n" c.text (Relgraph.pqcdf g))) ];
    printer [ "mincuts" ]
      [ ftree (fun c ft -> pp_cuts c (Ftree.mincuts ft) Fun.id);
        relgraph (fun c g -> pp_cuts c (Relgraph.mincuts g) arrow) ];
    printer [ "minpaths" ] [ relgraph (fun c g -> pp_cuts c (Relgraph.minpaths g) arrow) ];
    printer [ "multpath" ]
      [ graph (fun c g ->
            let env = c.ctx.env in
            env.print (Printf.sprintf "%s:\n" c.text);
            List.iteri
              (fun i (p, cdf) ->
                env.print
                  (Printf.sprintf "  path %d: prob %s, cdf %s\n" (i + 1) (fmt_num env p)
                     (E.to_string cdf)))
              (Spg.multipath g)) ] ]

(* --- calling the table's builtins ------------------------------------- *)

(* The call's time, its targets, then its model and the model's
   arguments, resolved *)
let read ctx f text shape groups =
  let resolve t sys args targets reward =
    let t = match t with Some t -> ev ctx t | None -> 0.0 in
    let targets = List.map (name_of ctx) targets in
    let m = name_of ctx sys in
    let args = List.map (ev ctx) (List.concat args) in
    { ctx; f; text; t; key = (m, args); inst = instantiate ctx m args; targets; reward }
  in
  match (shape, groups) with
  | Sys, (sys :: more) :: rest -> resolve None sys (more :: rest) [] []
  | (T_sys | Tvalue), (t :: sys :: more) :: rest | Tvalue, [ t ] :: (sys :: more) :: rest ->
      resolve (Some t) sys (more :: rest) [] []
  | Sys_names, (sys :: targets) :: rest -> resolve None sys rest targets []
  | T_sys_names, [ t ] :: (sys :: targets) :: rest -> resolve (Some t) sys rest targets []
  | Srn, (sys :: more) :: reward :: rest -> resolve None sys (more :: rest) [] reward
  | T_srn, (t :: sys :: more) :: reward :: rest -> resolve (Some t) sys (more :: rest) [] reward
  | _ -> err "unknown function %s" f

let fits ctx f shape args =
  match (shape, args) with
  | Args n, _ -> List.length args = n
  | Unbound n, _ -> List.length args = n && Option.is_none (global ctx f)
  | Binder, [ Ident _; _; _; _ ] | Transition, [ Ident _ ] -> true
  | _ -> false

(* [e] as the evaluator calls it by its name [f] *)
let for_eval f e =
  let called ctx text groups cases =
    let c = read ctx f text e.shape groups in
    match List.find_map (fun k -> k.run c) cases with
    | Some r -> r
    | None -> err "%s: unsupported model %s" f (fst c.key)
  in
  let run =
    match e.does with
    | Compute g ->
        Math
          (fun ctx -> function
            | [ args ] when fits ctx f e.shape args -> Some (g ctx args) | _ -> None)
    | Value cases -> Measure (fun ctx groups -> called ctx "" groups cases)
    | Print cases -> Printer (fun ctx text groups -> called ctx text groups cases)
  in
  { pure = e.pure; run }

let init_done =
  let by_name = Hashtbl.create 64 in
  List.iter (fun e -> List.iter (fun f -> Hashtbl.replace by_name f (for_eval f e)) e.names) table;
  Eval.builtin := Hashtbl.find_opt by_name;
  true
