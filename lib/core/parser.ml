(* Recursive-descent parser for the SHARPE language.

   The language is line-oriented: statements and model lines end at the end
   of the source line.  Model bodies are sections of items, each closed by
   [end]; [loop] items nest inside Markov-chain edge, reward and init
   sections.  See the thesis ch. 2-3 for the concrete grammar reproduced
   here.

   Every statement, a bare expression or one led by a keyword, must fill
   its line: one check after each, in [stmts].  One decision is made from
   one line, never by scanning ahead for an [end]: after a markov or
   semimark chain's edges (and reward section), the first line that is
   not a [loop] header decides whether an initial-probability section
   follows.  [end] opens an empty one.  A statement keyword, [reward],
   [fastmttf], or one expression that fills the line is a statement, so
   no section follows; a line that reads both ways, such as [f (x)],
   counts as a statement.  Any other line opens the section. *)

open Ast

type st = {
  toks : Lexer.t array;
  src : string;
  line_starts : int array;
  mutable pos : int;
}

exception Parse_error of string

let fail st msg =
  let t = st.toks.(st.pos) in
  raise
    (Parse_error
       (Printf.sprintf "line %d, col %d: %s" t.Lexer.line (t.Lexer.col + 1)
          msg))

let peek st = st.toks.(st.pos).Lexer.tok

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let skip_cont st = while peek st = Lexer.Cont do advance st done

let next st =
  let t = peek st in
  advance st;
  t

let expect st tok what =
  if peek st = tok then advance st else fail st (Printf.sprintf "expected %s" what)

let at_eol st =
  match peek st with Lexer.Newline | Lexer.Eof -> true | _ -> false

let skip_to_eol st = while not (at_eol st) do advance st done

let eat_newlines st =
  let rec go () =
    match peek st with
    | Lexer.Newline | Lexer.Cont ->
        advance st;
        go ()
    | _ -> ()
  in
  go ()

let name st what =
  match peek st with
  | Lexer.Name n ->
      advance st;
      n
  | Lexer.Number x when Float.is_integer x ->
      advance st;
      string_of_int (int_of_float x)
  | _ -> fail st (Printf.sprintf "expected %s" what)

let is_name st s = peek st = Lexer.Name s

let eat_name st s = if is_name st s then (advance st; true) else false

(* [s] opening the next nonblank line, eaten with the newlines before it;
   when it does not, nothing is eaten *)
let eat_line_name st s =
  let saved = st.pos in
  eat_newlines st;
  eat_name st s || (st.pos <- saved; false)

let eat_comma st = if peek st = Lexer.Comma then (advance st; true) else false

(* absolute source offset of a token *)
let offset st (t : Lexer.t) = st.line_starts.(t.Lexer.line - 1) + t.Lexer.col

let slice st start_pos end_pos =
  (* source text spanned by tokens [start_pos, end_pos) *)
  if end_pos <= start_pos then ""
  else begin
    let a = offset st st.toks.(start_pos) in
    let last = st.toks.(end_pos - 1) in
    let b = st.line_starts.(last.Lexer.line - 1) + last.Lexer.endcol in
    String.trim (String.sub st.src a (b - a))
  end

(* --- expressions --------------------------------------------------- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  let rec go lhs =
    if is_name st "or" then begin
      advance st;
      go (Binop (BOr, lhs, parse_and st))
    end
    else lhs
  in
  go lhs

and parse_and st =
  let lhs = parse_cmp st in
  let rec go lhs =
    if is_name st "and" then begin
      advance st;
      go (Binop (BAnd, lhs, parse_cmp st))
    end
    else lhs
  in
  go lhs

and parse_cmp st =
  let lhs = parse_add st in
  match peek st with
  | Lexer.Eq -> advance st; Binop (BEq, lhs, parse_add st)
  | Lexer.Neq -> advance st; Binop (BNeq, lhs, parse_add st)
  | Lexer.Lt -> advance st; Binop (BLt, lhs, parse_add st)
  | Lexer.Gt -> advance st; Binop (BGt, lhs, parse_add st)
  | Lexer.Le -> advance st; Binop (BLe, lhs, parse_add st)
  | Lexer.Ge -> advance st; Binop (BGe, lhs, parse_add st)
  | _ -> lhs

and parse_add st =
  let lhs = parse_mul st in
  let rec go lhs =
    match peek st with
    | Lexer.Plus -> advance st; go (Binop (Add, lhs, parse_mul st))
    | Lexer.Minus -> advance st; go (Binop (Sub, lhs, parse_mul st))
    | _ -> lhs
  in
  go lhs

and parse_mul st =
  let lhs = parse_pow st in
  let rec go lhs =
    match peek st with
    | Lexer.Star -> advance st; go (Binop (Mul, lhs, parse_pow st))
    | Lexer.Slash -> advance st; go (Binop (Div, lhs, parse_pow st))
    | _ -> lhs
  in
  go lhs

and parse_pow st =
  let lhs = parse_unary st in
  if peek st = Lexer.Caret then begin
    advance st;
    Binop (Pow, lhs, parse_pow st)
  end
  else lhs

and parse_unary st =
  match peek st with
  | Lexer.Minus -> advance st; Neg (parse_unary st)
  | Lexer.Name "not" -> advance st; Not (parse_unary st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.Number x -> advance st; Num x
  | Lexer.Hash ->
      advance st;
      expect st Lexer.LParen "( after #";
      let p = name st "place name" in
      expect st Lexer.RParen ") after place name";
      TokCount p
  | Lexer.Question ->
      advance st;
      expect st Lexer.LParen "( after ?";
      let t = name st "transition name" in
      expect st Lexer.RParen ") after transition name";
      Enabled t
  | Lexer.LParen ->
      advance st;
      let e = parse_expr st in
      expect st Lexer.RParen ")";
      e
  | Lexer.Name n ->
      advance st;
      if peek st = Lexer.LParen then begin
        advance st;
        let groups = parse_arg_groups st in
        expect st Lexer.RParen ") closing call";
        Call (n, groups)
      end
      else Ident n
  | Lexer.Dollar -> Tmpl (parse_tname st)
  | _ -> fail st "expected expression"

and parse_arg_groups st =
  if peek st = Lexer.RParen then []
  else begin
    let rec group acc =
      let e = parse_expr st in
      match peek st with
      | Lexer.Comma -> advance st; group (e :: acc)
      | _ -> List.rev (e :: acc)
    in
    let rec groups acc =
      let g = group [] in
      match peek st with
      | Lexer.Semi -> advance st; groups (g :: acc)
      | _ -> List.rev (g :: acc)
    in
    groups []
  end

(* templated names for Markov-chain states: adjacent fragments glue *)
and parse_tname st : tname =
  let adjacent () =
    (* previous token must touch the next one on the same line *)
    let prev = st.toks.(st.pos - 1) and cur = st.toks.(st.pos) in
    prev.Lexer.line = cur.Lexer.line && prev.Lexer.endcol = cur.Lexer.col
  in
  let lit_of_number x =
    if Float.is_integer x then string_of_int (int_of_float x)
    else Printf.sprintf "%g" x
  in
  let part () =
    match peek st with
    | Lexer.Name n -> advance st; Some (Lit n)
    | Lexer.Number x -> advance st; Some (Lit (lit_of_number x))
    | Lexer.Dollar ->
        advance st;
        expect st Lexer.LParen "( after $";
        let e = parse_expr st in
        expect st Lexer.RParen ") after $(";
        Some (Sub e)
    | _ -> None
  in
  match part () with
  | None -> fail st "expected a (state) name"
  | Some first ->
      let rec go acc =
        match peek st with
        | (Lexer.Name _ | Lexer.Number _ | Lexer.Dollar) when adjacent () -> (
            match part () with Some p -> go (p :: acc) | None -> List.rev acc)
        | _ -> List.rev acc
      in
      go [ first ]

(* distribution expressions: like ordinary expressions, except the [gen]
   family takes backslash-continued triples *)
let parse_dist st =
  match peek st with
  | Lexer.Name ("gen" | "cgen" | "tgen") ->
      let _ = next st in
      (* triples a,k,b separated by continuation (backslash) marks *)
      let rec triples acc =
        skip_cont st;
        if at_eol st then List.rev acc
        else begin
          let a = parse_expr st in
          expect st Lexer.Comma ", in gen triple";
          let k = parse_expr st in
          expect st Lexer.Comma ", in gen triple";
          let b = parse_expr st in
          triples ([ a; k; b ] :: acc)
        end
      in
      Call ("gen", triples [])
  | _ -> parse_expr st

(* --- readers shared by every section -------------------------------- *)

(* Items up to the section's closing [end], one [item] call each.  A line
   on which [stop] holds also closes the section, and is left unread. *)
let section ?(stop = fun _ -> false) st item =
  let rec go acc =
    eat_newlines st;
    if stop st || eat_name st "end" then List.rev acc else go (item st :: acc)
  in
  go []

let at_reward st = is_name st "reward"

let rec comma_exprs st =
  let e = parse_expr st in
  if eat_comma st then e :: comma_exprs st else [ e ]

let named_expr what st =
  let n = name st what in
  (n, parse_expr st)

let names_to_eol st =
  let rec go acc = if at_eol st then List.rev acc else go (name st "name" :: acc) in
  go []

(* parameter names after the opening parenthesis, through the closing one *)
let param_list st =
  let rec go acc =
    match peek st with
    | Lexer.RParen -> advance st; List.rev acc
    | Lexer.Comma -> advance st; go acc
    | _ -> go (name st "parameter" :: acc)
  in
  go []

let parse_params st = if peek st = Lexer.LParen then (advance st; param_list st) else []

(* [v, lo, hi {, step}] after a [loop] keyword; the first comma is optional *)
let loop_header st =
  let v = name st "loop variable" in
  ignore (eat_comma st);
  let lo = parse_expr st in
  expect st Lexer.Comma ", in loop bounds";
  let hi = parse_expr st in
  let step = if eat_comma st then Some (parse_expr st) else None in
  (v, lo, hi, step)

(* an [item], or a [loop] whose body, up to the loop's own [end], holds
   more of them *)
let rec looped item st =
  if eat_name st "loop" then begin
    let v, lo, hi, step = loop_header st in
    Loop (v, lo, hi, step, section st (looped item))
  end
  else Item (item st)

(* [k, n] of a kofn line, with an optional comma before its inputs *)
let kofn_bounds st =
  let k = parse_expr st in
  expect st Lexer.Comma ", after k";
  let nn = parse_expr st in
  ignore (eat_comma st);
  (k, nn)

(* --- model definitions ---------------------------------------------- *)

let block_line st =
  match name st "block line" with
  | "comp" ->
      let n = name st "component name" in
      BComp (n, parse_dist st)
  | ("series" | "or" | "parallel") as kw ->
      let n = name st "block name" in
      BCombine ((if kw = "parallel" then `Parallel else `Series), n, names_to_eol st)
  | "kofn" ->
      let n = name st "block name" in
      let k, nn = kofn_bounds st in
      BKofn (n, k, nn, names_to_eol st)
  | kw -> fail st (Printf.sprintf "unknown block line %s" kw)

let ftree_line st =
  let gate g =
    let n = name st "gate" in
    FGate (n, g, names_to_eol st)
  in
  match name st "ftree line" with
  | "basic" ->
      let n = name st "event" in
      FBasic (n, parse_dist st)
  | "repeat" ->
      let n = name st "event" in
      (* repeat (k1,k2) style parenthesized lists are parameters of the
         enclosing model in some files; here repeat always binds one
         name *)
      FRepeat (n, parse_dist st)
  | "transfer" ->
      let a = name st "alias" in
      FTransfer (a, name st "event")
  | "not" ->
      let n = name st "gate" in
      FGate (n, GNot, [ name st "input" ])
  | "and" -> gate GAnd
  | "or" -> gate GOr
  | "nand" -> gate GNand
  | "nor" -> gate GNor
  | ("kofn" | "nkofn") as kw ->
      let n = name st "gate" in
      let k, nn = kofn_bounds st in
      FGate (n, (if kw = "kofn" then GKofn (k, nn) else GNkofn (k, nn)), names_to_eol st)
  | kw -> fail st (Printf.sprintf "unknown ftree line %s" kw)

let split_state st n =
  match String.index_opt n ':' with
  | Some i -> (String.sub n 0 i, String.sub n (i + 1) (String.length n - i - 1))
  | None -> fail st (Printf.sprintf "expected component:state, got %s" n)

let mstree_line st =
  let gate g =
    let n = name st "gate" in
    MsGate (n, g, names_to_eol st)
  in
  match name st "mstree line" with
  | "basic" ->
      let c, s = split_state st (name st "component:state") in
      MsBasic (c, s, parse_dist st)
  | "transfer" ->
      let a = name st "alias" in
      MsTransfer (a, name st "component:state")
  | "and" -> gate MsAnd
  | "or" -> gate MsOr
  | "kofn" ->
      let n = name st "gate" in
      let k, nn = kofn_bounds st in
      MsGate (n, MsKofn (k, nn), names_to_eol st)
  | kw -> fail st (Printf.sprintf "unknown mstree line %s" kw)

let pms_phase st =
  let num = parse_expr st in
  let ph = name st "phase (fault tree) name" in
  (num, ph, parse_expr st)

(* [bidirect] is a line of its own, and holds for every edge after it *)
let relgraph_edges st =
  let bidirect = ref false in
  let edge st =
    if eat_name st "bidirect" then (bidirect := true; None)
    else begin
      let u = name st "node" in
      let v = name st "node" in
      let d = parse_dist st in
      let rec pairs () =
        if at_eol st then []
        else begin
          let a = name st "node" in
          let b = name st "node" in
          (a, b) :: pairs ()
        end
      in
      let tr = if eat_name st "transfer" then pairs () else [] in
      Some { re_from = u; re_to = v; re_dist = d; re_bidirect = !bidirect; re_transfers = tr }
    end
  in
  List.filter_map Fun.id (section st edge)

(* a node and the nodes it precedes *)
let graph_node st =
  let u = name st "node" in
  (u, names_to_eol st)

let graph_line st =
  match name st "graph line" with
  | "exit" ->
      let n = name st "node" in
      let ex =
        match name st "exit type" with
        | "prob" -> ExProb
        | "max" -> ExMax
        | "min" -> ExMin
        | "kofn" ->
            let k = parse_expr st in
            expect st Lexer.Comma ", in kofn exit";
            ExKofn (k, parse_expr st)
        | ty -> fail st (Printf.sprintf "unknown exit type %s" ty)
      in
      GExit (n, ex)
  | "prob" ->
      let u = name st "node" in
      let v = name st "node" in
      GProb (u, v, parse_expr st)
  | "dist" ->
      let n = name st "node" in
      GDist (n, parse_dist st)
  | "multpath" -> GMultpath
  | kw -> fail st (Printf.sprintf "unknown graph line %s" kw)

let route st =
  let u = name st "station" in
  let v = name st "station" in
  (u, v, parse_expr st)

let station_kind st =
  match name st "station type" with
  | "is" -> SkIs (parse_expr st)
  | "fcfs" -> SkFcfs (parse_expr st)
  | "ps" -> SkPs (parse_expr st)
  | "lcfspr" -> SkLcfspr (parse_expr st)
  | "ms" ->
      let n = parse_expr st in
      expect st Lexer.Comma ", in ms station";
      SkMs (n, parse_expr st)
  | "lds" -> SkLds (comma_exprs st)
  | kw -> fail st (Printf.sprintf "unknown station type %s" kw)

let pfqn_station st =
  let n = name st "station" in
  (n, station_kind st)

(* [chain <name>] sections of routes; later chains' routes come first *)
let mpfqn_routing st =
  let chain st =
    expect st (Lexer.Name "chain") "chain";
    let ch = name st "chain name" in
    List.map (fun (u, v, e) -> (ch, u, v, e)) (section st route)
  in
  List.concat (List.rev (section st chain))

(* a station line, then its optional per-chain rate lines and its own end *)
let mpfqn_station st =
  let n = name st "station" in
  let kind = station_kind st in
  let overrides =
    section st (fun st ->
        let ch = name st "chain" in
        (ch, comma_exprs st))
  in
  (n, kind, overrides)

let fastmttf_line st =
  let n = parse_tname st in
  match String.lowercase_ascii (name st "reada/readf") with
  | "reada" -> (n, `Reada)
  | "readf" -> (n, `Readf)
  | _ -> fail st "expected READA or READF"

let transition st =
  let n = name st "transition" in
  let rate =
    match name st "rate kind" with
    | "ind" -> `Ind (parse_expr st)
    | "placedep" | "dep" ->
        let p = name st "place" in
        `Placedep (p, parse_expr st)
    | "gendep" -> `Gendep (parse_expr st)
    | kw -> fail st (Printf.sprintf "unknown rate kind %s" kw)
  in
  let clause kw = if eat_name st kw then Some (parse_expr st) else None in
  let guard = clause "guard" in
  let priority = clause "priority" in
  (* guard may also follow priority *)
  let guard = match guard with None -> clause "guard" | Some _ -> guard in
  { st_name = n; st_rate = rate; st_guard = guard; st_priority = priority }

let arc st =
  let a = name st "arc endpoint" in
  let b = name st "arc endpoint" in
  (a, b, if at_eol st then Num 1.0 else parse_expr st)

let mrgp_edge st =
  let a = name st "state" in
  let kind =
    match peek st with
    | Lexer.Minus -> advance st; `NonReg
    | Lexer.At -> advance st; `Reg
    | _ -> `NonReg
  in
  let b = name st "state" in
  (a, kind, b, parse_dist st)

let pepa_body st name params =
  (* the lexer captured the block body verbatim into a Raw token *)
  eat_newlines st;
  match peek st with
  | Lexer.Raw body ->
      let first_line = st.toks.(st.pos).Lexer.line in
      advance st;
      if not (eat_name st "end") then fail st "expected end closing pepa block";
      let past =
        try Sharpe_pepa.Pepa.parse ~first_line body
        with Sharpe_pepa.Pepa.Error msg ->
          raise (Parse_error ("pepa " ^ name ^ ": " ^ msg))
      in
      MPepa { name; params; past }
  | _ -> fail st "expected a pepa block body terminated by end"

let srn_body ~gspn st name params =
  let places = section st (named_expr "place") in
  let timed = section st transition in
  let immediate = section st transition in
  let inputs = section st arc in
  let outputs = section st arc in
  let inhibitors = section st arc in
  MSrn { name; params; gspn; places; timed; immediate; inputs; outputs; inhibitors }

(* --- the kind table ------------------------------------------------- *)

let stmt_keywords =
  [ "bind"; "func"; "var"; "expr"; "echo"; "format"; "epsilon"; "loop";
    "while"; "if"; "bdd"; "verbose"; "debug"; "factor"; "multiple"; "ltimep";
    "rtimep" ]

(* Each model keyword with the reader of the body after its name and
   parameters.  The table is recursive with the chain reader: a model
   keyword after a chain ends it (see [init_section_opens]). *)
let rec model_kinds =
  [ ("block", fun st name params -> MBlock { name; params; lines = section st block_line });
    ("ftree", fun st name params -> MFtree { name; params; lines = section st ftree_line });
    ("mstree", fun st name params -> MMstree { name; params; lines = section st mstree_line });
    ("pms", fun st name params -> MPms { name; params; phases = section st pms_phase });
    ("relgraph", fun st name params -> MRelgraph { name; params; edges = relgraph_edges st });
    ( "graph",
      fun st name params ->
        let edges = section st graph_node in
        MGraph { name; params; edges; glines = section st graph_line } );
    ( "pfqn",
      fun st name params ->
        let routing = section st route in
        let stations = section st pfqn_station in
        let chains = section st (named_expr "chain") in
        MPfqn { name; params; routing; stations; chains } );
    ( "mpfqn",
      fun st name params ->
        let routing = mpfqn_routing st in
        let stations = section st mpfqn_station in
        let chains = section st (named_expr "chain") in
        MMpfqn { name; params; routing; stations; chains } );
    ( "markov",
      fun st name params ->
        (* [readprobs] is accepted and has no effect *)
        ignore (eat_name st "readprobs");
        MMarkov { name; params; chain = chain st parse_expr } );
    ( "semimark",
      fun st name params ->
        (* default: edge distributions race (independent competing
           timers), which degenerates to the CTMC semantics when all
           edges are exponential; [uncond] switches to
           unconditional-kernel semantics *)
        let mode =
          if eat_name st "uncond" then `Uncond else (ignore (eat_name st "cond"); `Cond)
        in
        MSemimark { name; params; mode; chain = chain st parse_dist } );
    ( "mrgp",
      fun st name params ->
        (* a [reward] line closes the edges, and its section's [end] the model *)
        let edges = section ~stop:at_reward st mrgp_edge in
        let rewards = if eat_name st "reward" then section st (named_expr "state") else [] in
        MMrgp { name; params; edges; rewards } );
    ("gspn", srn_body ~gspn:true);
    ("srn", srn_body ~gspn:false);
    ("pepa", pepa_body) ]

(* the rule in this file's header; reads ahead at most one line past the
   loop headers, and leaves the position where it was *)
and init_section_opens st =
  let saved = st.pos in
  eat_newlines st;
  while eat_name st "loop" do skip_to_eol st; eat_newlines st done;
  let opens =
    match peek st with
    | Lexer.Eof -> false
    | Lexer.Name "end" -> true
    | Lexer.Name k
      when k = "reward" || k = "fastmttf" || List.mem k stmt_keywords
           || List.mem_assoc k model_kinds ->
        false
    | _ -> ( match parse_expr st with _ -> not (at_eol st) | exception Parse_error _ -> true)
  in
  st.pos <- saved;
  opens

(* The body of a markov or semimark chain; [value] reads an edge's rate
   or distribution.  The edge section ends either at a bare [end] or
   directly at the [reward] keyword (one [end] then closes sections 1+2,
   as in the thesis' Erlang-loss model).  Reward and init lines are
   [tname expr]. *)
and chain st value =
  let edge st =
    let a = parse_tname st in
    let b = parse_tname st in
    (a, b, value st)
  in
  let sets st =
    section st
      (looped (fun st ->
           let n = parse_tname st in
           (n, parse_expr st)))
  in
  let edges = section ~stop:at_reward st (looped edge) in
  let rewards =
    if eat_line_name st "reward" then begin
      let default = if eat_name st "default" then Some (parse_expr st) else None in
      Some (sets st, default)
    end
    else None
  in
  let init = if init_section_opens st then sets st else [] in
  let fastmttf =
    if eat_line_name st "fastmttf" then Some (section st fastmttf_line) else None
  in
  { edges; rewards; init; fastmttf }

(* --- statements ----------------------------------------------------- *)

(* an expression with its source text, as [expr] prints it *)
let text_expr st =
  let start = st.pos in
  let e = parse_expr st in
  (slice st start st.pos, e)

let rec parse_stmt st : stmt =
  match peek st with
  | Lexer.Name "format" ->
      advance st;
      SFormat (parse_expr st)
  | Lexer.Name "echo" ->
      advance st;
      SEcho (match next st with Lexer.Name s -> s | _ -> "")
  | Lexer.Name "epsilon" ->
      advance st;
      let what = name st "epsilon kind" in
      SEpsilon (what, parse_expr st)
  | Lexer.Name ("bdd" | "verbose" | "debug" | "factor" | "multiple") ->
      let key = name st "switch" in
      let rest = if at_eol st then "" else name st "switch value" in
      skip_to_eol st;
      SSwitch (key, rest)
  | Lexer.Name ("ltimep" | "rtimep") -> SSwitch (name st "switch", "")
  | Lexer.Name "bind" ->
      advance st;
      (* block form: name expr lines until end *)
      if at_eol st then SBind (`Block (section st (named_expr "bound variable")))
      else begin
        let n = name st "bound variable" in
        SBind (`Single (n, parse_expr st))
      end
  | Lexer.Name "var" ->
      advance st;
      let n = name st "variable" in
      SVar (n, parse_expr st)
  | Lexer.Name "func" ->
      advance st;
      let n = name st "function name" in
      expect st Lexer.LParen "( after function name";
      let ps = param_list st in
      SFunc (n, ps, if at_eol st then FStmts (block st) else FExpr (parse_expr st))
  | Lexer.Name "if" -> parse_if st
  | Lexer.Name "while" ->
      advance st;
      let cond = parse_expr st in
      SWhile (cond, block st)
  | Lexer.Name "loop" ->
      advance st;
      let v, lo, hi, step = loop_header st in
      SLoop (v, lo, hi, step, block st)
  | Lexer.Name "expr" ->
      advance st;
      let rec items () =
        let item = text_expr st in
        if eat_comma st then item :: items () else [ item ]
      in
      SExpr (items ())
  | Lexer.Name m when List.mem_assoc m model_kinds ->
      advance st;
      let mname = name st "model name" in
      let params = parse_params st in
      SModel (List.assoc m model_kinds st mname params)
  | _ ->
      (* bare expression statement, printed like expr *)
      SExpr [ text_expr st ]

(* statements up to a line that starts with one of [stops], left unread,
   or up to the end of input; every statement ends its line *)
and stmts st ~stops =
  let rec go acc =
    eat_newlines st;
    match peek st with
    | Lexer.Eof -> List.rev acc
    | Lexer.Name w when List.mem w stops -> List.rev acc
    | _ ->
        let s = parse_stmt st in
        if not (at_eol st) then
          fail st
            (match s with
            | SExpr _ -> "expected end of line after expression"
            | _ -> "expected end of line after statement");
        go (s :: acc)
  in
  go []

(* statements through the matching [end] (or the end of input) *)
and block st =
  let body = stmts st ~stops:[ "end" ] in
  ignore (eat_name st "end");
  body

and parse_if st =
  advance st;
  let branch_end = [ "elseif"; "else"; "end" ] in
  let branch () =
    let cond = parse_expr st in
    (cond, stmts st ~stops:branch_end)
  in
  let rec clauses acc =
    if eat_name st "elseif" then clauses (branch () :: acc)
    else if eat_name st "else" then begin
      let els = stmts st ~stops:branch_end in
      expect st (Lexer.Name "end") "end closing if";
      SIf (List.rev acc, els)
    end
    else begin
      expect st (Lexer.Name "end") "elseif/else/end in if statement";
      SIf (List.rev acc, [])
    end
  in
  clauses [ branch () ]

(* --- entry points ---------------------------------------------------- *)

(* a lexer error is raised as a parse error: one exception for every
   malformed input *)
let make_state ~warn src =
  let toks =
    try Lexer.tokenize ~warn src with Lexer.Error msg -> raise (Parse_error msg)
  in
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) src;
  let line_starts = Array.of_list (List.rev !starts) in
  { toks = Array.of_list toks; src; line_starts; pos = 0 }

let parse_string ?(warn = fun _ -> ()) src =
  let st = make_state ~warn src in
  (* a stray top-level [end] is skipped: files conventionally finish with one *)
  let rec program () =
    let body = block st in
    if peek st = Lexer.Eof then body else body @ program ()
  in
  program ()

(* the expression must fill its input *)
let parse_expression ?(warn = fun _ -> ()) src =
  let st = make_state ~warn src in
  let e = parse_expr st in
  eat_newlines st;
  if peek st <> Lexer.Eof then fail st "expected end of input after expression";
  e
