(* Recursive-descent parser for the SHARPE language.

   The language is line-oriented: statements and model lines end at the end
   of the source line.  Model bodies are section-based, with [end]
   terminating sections and definitions; [loop] constructs may appear inside
   Markov-chain bodies and are nesting-aware.  See the thesis ch. 2-3 for
   the concrete grammar reproduced here. *)

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
let peek_at st k =
  if st.pos + k < Array.length st.toks then st.toks.(st.pos + k).Lexer.tok else Lexer.Eof

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

(* --- statements ----------------------------------------------------- *)

let top_keywords =
  [ "bind"; "func"; "var"; "expr"; "echo"; "format"; "epsilon"; "loop"; "while";
    "if"; "block"; "ftree"; "mstree"; "pms"; "relgraph"; "graph"; "pfqn";
    "mpfqn"; "markov"; "semimark"; "mrgp"; "gspn"; "srn"; "pepa"; "bdd"; "verbose";
    "debug"; "factor"; "ltimep"; "rtimep" ]

let rec parse_stmts st ~until =
  eat_newlines st;
  let rec go acc =
    eat_newlines st;
    match peek st with
    | Lexer.Eof -> List.rev acc
    | Lexer.Name "end" when until = `End ->
        advance st;
        List.rev acc
    | _ -> (
        match parse_stmt st with
        | Some s -> go (s :: acc)
        | None -> go acc)
  in
  go []

and parse_stmt st : stmt option =
  eat_newlines st;
  match peek st with
  | Lexer.Eof -> None
  | Lexer.Name "end" ->
      (* stray top-level end (files conventionally finish with one) *)
      advance st;
      None
  | Lexer.Name "format" ->
      advance st;
      let e = parse_expr st in
      Some (SFormat e)
  | Lexer.Name "echo" ->
      advance st;
      let text = match next st with Lexer.Name s -> s | _ -> "" in
      Some (SEcho text)
  | Lexer.Name "epsilon" ->
      advance st;
      let what = name st "epsilon kind" in
      let e = parse_expr st in
      Some (SEpsilon (what, e))
  | Lexer.Name ("bdd" | "verbose" | "debug" | "factor" | "multiple") ->
      let key = name st "switch" in
      let rest = if at_eol st then "" else name st "switch value" in
      skip_to_eol st;
      Some (SSwitch (key, rest))
  | Lexer.Name ("ltimep" | "rtimep") ->
      let key = name st "switch" in
      Some (SSwitch (key, ""))
  | Lexer.Name "bind" ->
      advance st;
      if at_eol st then begin
        (* block form: name expr lines until end *)
        eat_newlines st;
        let rec lines acc =
          eat_newlines st;
          if eat_name st "end" then List.rev acc
          else begin
            let n = name st "bound variable" in
            let e = parse_expr st in
            lines ((n, e) :: acc)
          end
        in
        let bs = lines [] in
        (* a block of binds, represented as an always-true conditional *)
        Some (SIf ([ (Num 1.0, List.map (fun (n, e) -> SBind (n, e, `Block)) bs) ], []))
      end
      else begin
        let n = name st "bound variable" in
        let e = parse_expr st in
        Some (SBind (n, e, `Single))
      end
  | Lexer.Name "var" ->
      advance st;
      let n = name st "variable" in
      let e = parse_expr st in
      Some (SVar (n, e))
  | Lexer.Name "func" ->
      advance st;
      let n = name st "function name" in
      expect st Lexer.LParen "( after function name";
      let rec params acc =
        match peek st with
        | Lexer.RParen -> advance st; List.rev acc
        | Lexer.Comma -> advance st; params acc
        | _ -> params (name st "parameter" :: acc)
      in
      let ps = params [] in
      if at_eol st then begin
        let body = parse_stmts st ~until:`End in
        Some (SFunc (n, ps, FStmts body))
      end
      else begin
        let e = parse_expr st in
        Some (SFunc (n, ps, FExpr e))
      end
  | Lexer.Name "if" -> Some (parse_if st)
  | Lexer.Name "while" ->
      advance st;
      let cond = parse_expr st in
      let body = parse_stmts_block st in
      Some (SWhile (cond, body))
  | Lexer.Name "loop" ->
      advance st;
      let v = name st "loop variable" in
      let _ = eat_comma st in
      let lo = parse_expr st in
      expect st Lexer.Comma ", in loop bounds";
      let hi = parse_expr st in
      let step =
        if peek st = Lexer.Comma then begin
          advance st;
          Some (parse_expr st)
        end
        else None
      in
      let body = parse_stmts_block st in
      Some (SLoop (v, lo, hi, step, body))
  | Lexer.Name "expr" ->
      advance st;
      let rec items acc =
        let start = st.pos in
        let e = parse_expr st in
        let text = slice st start st.pos in
        if peek st = Lexer.Comma then begin
          advance st;
          items ((text, e) :: acc)
        end
        else List.rev ((text, e) :: acc)
      in
      Some (SExpr (items []))
  | Lexer.Name m
    when List.mem m
           [ "block"; "ftree"; "mstree"; "pms"; "relgraph"; "graph"; "pfqn";
             "mpfqn"; "markov"; "semimark"; "mrgp"; "gspn"; "srn"; "pepa" ] ->
      Some (SModel (parse_model st m))
  | Lexer.Newline | Lexer.Cont ->
      advance st;
      None
  | _ ->
      (* bare expression statement, printed like expr *)
      let start = st.pos in
      let e = parse_expr st in
      let text = slice st start st.pos in
      Some (SExpr [ (text, e) ])

and eat_comma st =
  if peek st = Lexer.Comma then begin
    advance st;
    true
  end
  else false

(* statements until the matching end (if/while/loop bodies nest) *)
and parse_stmts_block st =
  let rec go acc =
    eat_newlines st;
    match peek st with
    | Lexer.Eof -> List.rev acc
    | Lexer.Name "end" ->
        advance st;
        List.rev acc
    | _ -> (
        match parse_stmt st with Some s -> go (s :: acc) | None -> go acc)
  in
  go []

and parse_if st =
  expect st (Lexer.Name "if") "if";
  let cond = parse_expr st in
  let rec branch_body acc =
    eat_newlines st;
    match peek st with
    | Lexer.Name ("elseif" | "else" | "end") | Lexer.Eof -> List.rev acc
    | _ -> (
        match parse_stmt st with
        | Some s -> branch_body (s :: acc)
        | None -> branch_body acc)
  in
  let first_body = branch_body [] in
  let rec clauses acc =
    eat_newlines st;
    match peek st with
    | Lexer.Name "elseif" ->
        advance st;
        let c = parse_expr st in
        let b = branch_body [] in
        clauses ((c, b) :: acc)
    | Lexer.Name "else" ->
        advance st;
        let b = branch_body [] in
        expect st (Lexer.Name "end") "end closing if";
        (List.rev acc, b)
    | Lexer.Name "end" ->
        advance st;
        (List.rev acc, [])
    | _ -> fail st "expected elseif/else/end in if statement"
  in
  let rest, els = clauses [] in
  SIf ((cond, first_body) :: rest, els)

(* --- model definitions ---------------------------------------------- *)

and parse_params st =
  if peek st = Lexer.LParen then begin
    advance st;
    let rec go acc =
      match peek st with
      | Lexer.RParen -> advance st; List.rev acc
      | Lexer.Comma -> advance st; go acc
      | _ -> go (name st "parameter" :: acc)
    in
    go []
  end
  else []

and parse_model st kw =
  advance st;
  (* consume the keyword *)
  let mname = name st "model name" in
  let params = parse_params st in
  match kw with
  | "block" -> parse_block st mname params
  | "ftree" -> parse_ftree st mname params
  | "mstree" -> parse_mstree st mname params
  | "pms" -> parse_pms st mname params
  | "relgraph" -> parse_relgraph st mname params
  | "graph" -> parse_graph st mname params
  | "pfqn" -> parse_pfqn st mname params
  | "mpfqn" -> parse_mpfqn st mname params
  | "markov" -> parse_markov st mname params
  | "semimark" -> parse_semimark st mname params
  | "mrgp" -> parse_mrgp st mname params
  | "gspn" -> parse_srn st mname params ~gspn:true
  | "srn" -> parse_srn st mname params ~gspn:false
  | "pepa" -> parse_pepa st mname params
  | _ -> fail st "unknown model keyword"

and names_to_eol st =
  let rec go acc = if at_eol st then List.rev acc else go (name st "name" :: acc) in
  go []

and parse_block st mname params =
  let rec lines acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let kw = name st "block line" in
      let l =
        match kw with
        | "comp" ->
            let n = name st "component name" in
            BComp (n, parse_dist st)
        | "series" | "or" ->
            let n = name st "block name" in
            BCombine (`Series, n, names_to_eol st)
        | "parallel" ->
            let n = name st "block name" in
            BCombine (`Parallel, n, names_to_eol st)
        | "kofn" ->
            let n = name st "block name" in
            let k = parse_expr st in
            expect st Lexer.Comma ", after k";
            let nn = parse_expr st in
            let _ = eat_comma st in
            BKofn (n, k, nn, names_to_eol st)
        | _ -> fail st (Printf.sprintf "unknown block line %s" kw)
      in
      lines (l :: acc)
    end
  in
  MBlock { name = mname; params; lines = lines [] }

and parse_ftree st mname params =
  let rec lines acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let kw = name st "ftree line" in
      let l =
        match kw with
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
            let b = name st "event" in
            FTransfer (a, b)
        | "not" ->
            let n = name st "gate" in
            FGate (n, GNot, [ name st "input" ])
        | "and" -> let n = name st "gate" in FGate (n, GAnd, names_to_eol st)
        | "or" -> let n = name st "gate" in FGate (n, GOr, names_to_eol st)
        | "nand" -> let n = name st "gate" in FGate (n, GNand, names_to_eol st)
        | "nor" -> let n = name st "gate" in FGate (n, GNor, names_to_eol st)
        | "kofn" | "nkofn" ->
            let n = name st "gate" in
            let k = parse_expr st in
            expect st Lexer.Comma ", after k";
            let nn = parse_expr st in
            let _ = eat_comma st in
            let inputs = names_to_eol st in
            FGate (n, (if kw = "kofn" then GKofn (k, nn) else GNkofn (k, nn)), inputs)
        | _ -> fail st (Printf.sprintf "unknown ftree line %s" kw)
      in
      lines (l :: acc)
    end
  in
  MFtree { name = mname; params; lines = lines [] }

and split_state st n =
  match String.index_opt n ':' with
  | Some i -> (String.sub n 0 i, String.sub n (i + 1) (String.length n - i - 1))
  | None -> fail st (Printf.sprintf "expected component:state, got %s" n)

and parse_mstree st mname params =
  let rec lines acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let kw = name st "mstree line" in
      let l =
        match kw with
        | "basic" ->
            let n = name st "component:state" in
            let c, s = split_state st n in
            MsBasic (c, s, parse_dist st)
        | "transfer" ->
            let a = name st "alias" in
            let b = name st "component:state" in
            MsTransfer (a, b)
        | "and" -> let n = name st "gate" in MsGate (n, MsAnd, names_to_eol st)
        | "or" -> let n = name st "gate" in MsGate (n, MsOr, names_to_eol st)
        | "kofn" ->
            let n = name st "gate" in
            let k = parse_expr st in
            expect st Lexer.Comma ", after k";
            let nn = parse_expr st in
            let _ = eat_comma st in
            MsGate (n, MsKofn (k, nn), names_to_eol st)
        | _ -> fail st (Printf.sprintf "unknown mstree line %s" kw)
      in
      lines (l :: acc)
    end
  in
  MMstree { name = mname; params; lines = lines [] }

and parse_pms st mname params =
  let rec lines acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let num = parse_expr st in
      let ph = name st "phase (fault tree) name" in
      let dur = parse_expr st in
      lines ((num, ph, dur) :: acc)
    end
  in
  MPms { name = mname; params; phases = lines [] }

and parse_relgraph st mname params =
  let bidirect = ref false in
  let rec lines acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else if eat_name st "bidirect" then begin
      bidirect := true;
      lines acc
    end
    else begin
      let u = name st "node" in
      let v = name st "node" in
      let d = parse_dist st in
      let rec transfers acc =
        if eat_name st "transfer" then begin
          let rec pairs acc =
            if at_eol st then List.rev acc
            else begin
              let a = name st "node" in
              let b = name st "node" in
              pairs ((a, b) :: acc)
            end
          in
          transfers (acc @ pairs [])
        end
        else acc
      in
      let tr = transfers [] in
      lines
        ({ re_from = u; re_to = v; re_dist = d; re_bidirect = !bidirect;
           re_transfers = tr }
        :: acc)
    end
  in
  MRelgraph { name = mname; params; edges = lines [] }

and parse_graph st mname params =
  let rec edges acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let u = name st "node" in
      let vs = names_to_eol st in
      edges ((u, vs) :: acc)
    end
  in
  let es = edges [] in
  let rec glines acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let kw = name st "graph line" in
      let l =
        match kw with
        | "exit" ->
            let n = name st "node" in
            let ty = name st "exit type" in
            let ex =
              match ty with
              | "prob" -> ExProb
              | "max" -> ExMax
              | "min" -> ExMin
              | "kofn" ->
                  let k = parse_expr st in
                  expect st Lexer.Comma ", in kofn exit";
                  let nn = parse_expr st in
                  ExKofn (k, nn)
              | _ -> fail st (Printf.sprintf "unknown exit type %s" ty)
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
        | _ -> fail st (Printf.sprintf "unknown graph line %s" kw)
      in
      glines (l :: acc)
    end
  in
  MGraph { name = mname; params; edges = es; glines = glines [] }

and parse_station_kind st =
  let kw = name st "station type" in
  match kw with
  | "is" -> SkIs (parse_expr st)
  | "fcfs" -> SkFcfs (parse_expr st)
  | "ps" -> SkPs (parse_expr st)
  | "lcfspr" -> SkLcfspr (parse_expr st)
  | "ms" ->
      let n = parse_expr st in
      expect st Lexer.Comma ", in ms station" ;
      SkMs (n, parse_expr st)
  | "lds" ->
      let rec rates acc =
        let e = parse_expr st in
        if eat_comma st then rates (e :: acc) else List.rev (e :: acc)
      in
      SkLds (rates [])
  | _ -> fail st (Printf.sprintf "unknown station type %s" kw)

and parse_pfqn st mname params =
  let rec routing acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let u = name st "station" in
      let v = name st "station" in
      routing ((u, v, parse_expr st) :: acc)
    end
  in
  let r = routing [] in
  let rec stations acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let n = name st "station" in
      stations ((n, parse_station_kind st) :: acc)
    end
  in
  let s = stations [] in
  let rec chains acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let n = name st "chain" in
      chains ((n, parse_expr st) :: acc)
    end
  in
  MPfqn { name = mname; params; routing = r; stations = s; chains = chains [] }

and parse_mpfqn st mname params =
  let rec chain_sections acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      expect st (Lexer.Name "chain") "chain";
      let ch = name st "chain name" in
      let rec routes acc =
        eat_newlines st;
        if eat_name st "end" then List.rev acc
        else begin
          let u = name st "station" in
          let v = name st "station" in
          routes ((ch, u, v, parse_expr st) :: acc)
        end
      in
      chain_sections (routes [] @ acc)
    end
  in
  let routing = List.rev (chain_sections []) in
  let rec stations acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let n = name st "station" in
      let kind = parse_station_kind st in
      (* optional per-chain rate lines, then end (possibly on same line) *)
      let rec overrides acc =
        eat_newlines st;
        if eat_name st "end" then List.rev acc
        else begin
          let ch = name st "chain" in
          let rec exprs acc =
            let e = parse_expr st in
            if eat_comma st then exprs (e :: acc) else List.rev (e :: acc)
          in
          overrides ((ch, exprs []) :: acc)
        end
      in
      let ov = overrides [] in
      stations ((n, kind, ov) :: acc)
    end
  in
  let s = stations [] in
  let rec chains acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let n = name st "chain" in
      chains ((n, parse_expr st) :: acc)
    end
  in
  MMpfqn { name = mname; params; routing; stations = s; chains = chains [] }

(* does an init-probability section follow?  scan forward for a bare [end]
   before any top-level-looking line, tracking loop/end nesting: a
   statement keyword ends the scan inside a loop too (a top-level loop
   after the model is not an init section), a call-looking line only
   outside one *)
and init_section_follows st =
  let saved = st.pos in
  let rec scan depth =
    eat_newlines st;
    match peek st with
    | Lexer.Eof -> false
    | Lexer.Name "end" -> if depth = 0 then true else (skip_to_eol st; scan (depth - 1))
    | Lexer.Name "loop" -> skip_to_eol st; scan (depth + 1)
    | Lexer.Name ("reward" | "fastmttf") -> false
    | Lexer.Name k when List.mem k top_keywords -> false
    | Lexer.Name _ when depth = 0 && peek_at st 1 = Lexer.LParen -> false
    | _ -> skip_to_eol st; scan depth
  in
  let r = scan 0 in
  st.pos <- saved;
  r

and parse_msets st =
  (* reward / init lines: tname expr, possibly inside loops *)
  let rec go acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else if eat_name st "loop" then begin
      let v = name st "loop variable" in
      let _ = eat_comma st in
      let lo = parse_expr st in
      expect st Lexer.Comma ", in loop" ;
      let hi = parse_expr st in
      let step = if eat_comma st then Some (parse_expr st) else None in
      let body = go [] in
      go (MSetLoop (v, lo, hi, step, body) :: acc)
    end
    else begin
      let n = parse_tname st in
      let e = parse_expr st in
      go (MSet (n, e) :: acc)
    end
  in
  go []

and parse_reward_section st =
  if is_name st "reward" then begin
    advance st;
    let default = if eat_name st "default" then Some (parse_expr st) else None in
    let sets = parse_msets st in
    Some (sets, default)
  end
  else None

and parse_fastmttf st =
  if is_name st "fastmttf" then begin
    advance st;
    let rec go acc =
      eat_newlines st;
      if eat_name st "end" then List.rev acc
      else begin
        let n = parse_tname st in
        let kw = String.lowercase_ascii (name st "reada/readf") in
        let k =
          match kw with
          | "reada" -> `Reada
          | "readf" -> `Readf
          | _ -> fail st "expected READA or READF"
        in
        go ((n, k) :: acc)
      end
    in
    Some (go [])
  end
  else None

and parse_markov st mname params =
  let readprobs = eat_name st "readprobs" in
  (* the edge section ends either at a bare [end] or directly at the
     [reward] keyword (one [end] then closes sections 1+2, as in the
     thesis' Erlang-loss model) *)
  let rec edges ~toplevel acc =
    eat_newlines st;
    if toplevel && is_name st "reward" then List.rev acc
    else if eat_name st "end" then List.rev acc
    else if eat_name st "loop" then begin
      let v = name st "loop variable" in
      let _ = eat_comma st in
      let lo = parse_expr st in
      expect st Lexer.Comma ", in loop";
      let hi = parse_expr st in
      let step = if eat_comma st then Some (parse_expr st) else None in
      let body = edges ~toplevel:false [] in
      edges ~toplevel (MEdgeLoop (v, lo, hi, step, body) :: acc)
    end
    else begin
      let a = parse_tname st in
      let b = parse_tname st in
      let e = parse_expr st in
      edges ~toplevel (MEdge (a, b, e) :: acc)
    end
  in
  let es = edges ~toplevel:true [] in
  eat_newlines st;
  let rewards = parse_reward_section st in
  eat_newlines st;
  let init = if init_section_follows st then parse_msets st else [] in
  eat_newlines st;
  let fast = parse_fastmttf st in
  MMarkov { name = mname; params; readprobs; edges = es; rewards; init; fastmttf = fast }

and parse_semimark st mname params =
  (* default: edge distributions race (independent competing timers), which
     degenerates to the CTMC semantics when all edges are exponential;
     [uncond] switches to unconditional-kernel semantics *)
  let mode =
    if eat_name st "uncond" then `Uncond
    else begin
      ignore (eat_name st "cond");
      `Cond
    end
  in
  let rec edges ~toplevel acc =
    eat_newlines st;
    if toplevel && is_name st "reward" then List.rev acc
    else if eat_name st "end" then List.rev acc
    else if eat_name st "loop" then begin
      let v = name st "loop variable" in
      let _ = eat_comma st in
      let lo = parse_expr st in
      expect st Lexer.Comma ", in loop";
      let hi = parse_expr st in
      let step = if eat_comma st then Some (parse_expr st) else None in
      let body = edges ~toplevel:false [] in
      edges ~toplevel (SmEdgeLoop (v, lo, hi, step, body) :: acc)
    end
    else begin
      let a = parse_tname st in
      let b = parse_tname st in
      let e = parse_dist st in
      edges ~toplevel (SmEdge (a, b, e) :: acc)
    end
  in
  let es = edges ~toplevel:true [] in
  eat_newlines st;
  let rewards = parse_reward_section st in
  eat_newlines st;
  let init = if init_section_follows st then parse_msets st else [] in
  eat_newlines st;
  let fast = parse_fastmttf st in
  MSemimark
    { name = mname; params; mode; edges = es; rewards; init; fastmttf = fast }

and parse_mrgp st mname params =
  let rec edges acc =
    eat_newlines st;
    if eat_name st "end" then (List.rev acc, [])
    else if is_name st "reward" then begin
      advance st;
      let rec rws acc2 =
        eat_newlines st;
        if eat_name st "end" then List.rev acc2
        else begin
          let n = name st "state" in
          rws ((n, parse_expr st) :: acc2)
        end
      in
      (List.rev acc, rws [])
    end
    else begin
      let a = name st "state" in
      let kind =
        match peek st with
        | Lexer.Minus -> advance st; `NonReg
        | Lexer.At -> advance st; `Reg
        | _ -> `NonReg
      in
      let b = name st "state" in
      let e = parse_dist st in
      edges ((a, kind, b, e) :: acc)
    end
  in
  let es, rws = edges [] in
  MMrgp { name = mname; params; edges = es; rewards = rws }

and parse_srn st mname params ~gspn =
  let rec places acc =
    eat_newlines st;
    if eat_name st "end" then List.rev acc
    else begin
      let n = name st "place" in
      places ((n, parse_expr st) :: acc)
    end
  in
  let ps = places [] in
  let parse_trans_section () =
    let rec go acc =
      eat_newlines st;
      if eat_name st "end" then List.rev acc
      else begin
        let n = name st "transition" in
        let kw = name st "rate kind" in
        let rate =
          match kw with
          | "ind" -> `Ind (parse_expr st)
          | "placedep" | "dep" ->
              let p = name st "place" in
              `Placedep (p, parse_expr st)
          | "gendep" -> `Gendep (parse_expr st)
          | _ -> fail st (Printf.sprintf "unknown rate kind %s" kw)
        in
        let guard = if eat_name st "guard" then Some (parse_expr st) else None in
        let priority = if eat_name st "priority" then Some (parse_expr st) else None in
        (* guard may also follow priority *)
        let guard =
          match guard with
          | Some _ -> guard
          | None -> if eat_name st "guard" then Some (parse_expr st) else None
        in
        go ({ st_name = n; st_rate = rate; st_guard = guard; st_priority = priority } :: acc)
      end
    in
    go []
  in
  let timed = parse_trans_section () in
  let immediate = parse_trans_section () in
  let parse_arcs () =
    let rec go acc =
      eat_newlines st;
      if eat_name st "end" then List.rev acc
      else begin
        let a = name st "arc endpoint" in
        let b = name st "arc endpoint" in
        let card = if at_eol st then Num 1.0 else parse_expr st in
        go ((a, b, card) :: acc)
      end
    in
    go []
  in
  let inputs = parse_arcs () in
  let outputs = parse_arcs () in
  let inhibitors = parse_arcs () in
  MSrn
    { name = mname; params; gspn; places = ps; timed; immediate; inputs;
      outputs; inhibitors }

and parse_pepa st mname params =
  (* the lexer captured the block body verbatim into a Raw token *)
  eat_newlines st;
  match peek st with
  | Lexer.Raw body ->
      let body_line = st.toks.(st.pos).Lexer.line in
      advance st;
      if not (eat_name st "end") then fail st "expected end closing pepa block";
      let past =
        try Sharpe_pepa.Pepa.parse ~first_line:body_line body
        with Sharpe_pepa.Pepa.Error msg ->
          raise (Parse_error ("pepa " ^ mname ^ ": " ^ msg))
      in
      MPepa { name = mname; params; body; body_line; past }
  | _ -> fail st "expected a pepa block body terminated by end"

(* --- entry points ---------------------------------------------------- *)

let line_starts_of src =
  let starts = ref [ 0 ] in
  String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) src;
  Array.of_list (List.rev !starts)

let parse_string ?(warn = fun _ -> ()) src =
  let toks = Array.of_list (Lexer.tokenize ~warn src) in
  let st = { toks; src; line_starts = line_starts_of src; pos = 0 } in
  let rec all acc =
    eat_newlines st;
    if peek st = Lexer.Eof then List.rev acc
    else
      match parse_stmt st with Some s -> all (s :: acc) | None -> all acc
  in
  all []

let parse_expression ?(warn = fun _ -> ()) src =
  let toks = Array.of_list (Lexer.tokenize ~warn src) in
  let st = { toks; src; line_starts = line_starts_of src; pos = 0 } in
  parse_expr st
