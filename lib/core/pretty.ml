open Ast

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Pow -> "^"
  | BAnd -> "and"
  | BOr -> "or"
  | BEq -> "=="
  | BNeq -> "<>"
  | BLt -> "<"
  | BGt -> ">"
  | BLe -> "<="
  | BGe -> ">="

let prec = function
  | BOr -> 1
  | BAnd -> 2
  | BEq | BNeq | BLt | BGt | BLe | BGe -> 3
  | Add | Sub -> 4
  | Mul | Div -> 5
  | Pow -> 6

let rec pp_expr ?(level = 0) ppf e =
  match e with
  | Num x ->
      if Float.is_integer x && Float.abs x < 1e15 then
        Format.fprintf ppf "%d" (int_of_float x)
      else Format.pp_print_string ppf (Sharpe_pepa.Ast.pp_float x)
  | Ident n -> Format.pp_print_string ppf n
  | TokCount p -> Format.fprintf ppf "#(%s)" p
  | Enabled t -> Format.fprintf ppf "?(%s)" t
  | Tmpl tn -> pp_tname ppf tn
  | Neg e -> Format.fprintf ppf "-%a" (pp_expr ~level:7) e
  | Not e -> Format.fprintf ppf "not %a" (pp_expr ~level:7) e
  | Binop (op, a, b) ->
      let p = prec op in
      let open_paren = p < level in
      (* comparisons are non-associative in the grammar: parenthesize both
         operands one level up so nested comparisons re-parse *)
      let lhs_level = match op with BEq | BNeq | BLt | BGt | BLe | BGe -> p + 1 | _ -> p in
      if open_paren then Format.pp_print_char ppf '(';
      Format.fprintf ppf "%a %s %a" (pp_expr ~level:lhs_level) a (binop_str op)
        (pp_expr ~level:(p + 1)) b;
      if open_paren then Format.pp_print_char ppf ')'
  | Call (f, groups) ->
      Format.fprintf ppf "%s(%s)" f
        (String.concat "; "
           (List.map
              (fun g ->
                String.concat ", "
                  (List.map (fun e -> Format.asprintf "%a" (pp_expr ~level:0) e) g))
              groups))

and pp_tname ppf tn =
  List.iter
    (function
      | Lit s -> Format.pp_print_string ppf s
      | Sub e -> Format.fprintf ppf "$(%a)" (pp_expr ~level:0) e)
    tn

let expr ppf e = pp_expr ~level:0 ppf e
let expr_to_string e = Format.asprintf "%a" expr e

(* a distribution as [Parser.parse_dist] reads it: the [gen] family's
   triples are separated by continuation marks *)
let dist ppf = function
  | Call ("gen", triples) ->
      Format.fprintf ppf "gen %s"
        (String.concat " \\ "
           (List.map (fun g -> String.concat ", " (List.map expr_to_string g)) triples))
  | e -> expr ppf e

let pp_loop_header ppf (v, lo, hi, step) =
  Format.fprintf ppf "loop %s, %a, %a%t" v expr lo expr hi (fun ppf ->
      match step with Some s -> Format.fprintf ppf ", %a" expr s | None -> ())

(* the items of a chain section, one a line, loops through their [end] *)
let rec pp_looped item ppf =
  List.iter (function
    | Item x -> Format.fprintf ppf "%a@," item x
    | Loop (v, lo, hi, step, body) ->
        Format.fprintf ppf "%a@,%aend@," pp_loop_header (v, lo, hi, step) (pp_looped item) body)

(* a chain's sections; the init section always prints, [end] alone when
   empty, so whatever follows the model cannot be read as one *)
let pp_chain value ppf { edges; rewards; init; fastmttf } =
  let set ppf (n, e) = Format.fprintf ppf "%a %a" pp_tname n expr e in
  Format.fprintf ppf "%aend@,"
    (pp_looped (fun ppf (a, b, x) -> Format.fprintf ppf "%a %a %a" pp_tname a pp_tname b value x))
    edges;
  Option.iter
    (fun (sets, default) ->
      Format.fprintf ppf "reward%t@,%aend@,"
        (fun ppf -> Option.iter (Format.fprintf ppf " default %a" expr) default)
        (pp_looped set) sets)
    rewards;
  Format.fprintf ppf "%aend@," (pp_looped set) init;
  Option.iter
    (fun lines ->
      Format.fprintf ppf "fastmttf@,";
      List.iter
        (fun (tn, k) ->
          Format.fprintf ppf "%a %s@," pp_tname tn
            (match k with `Reada -> "READA" | `Readf -> "READF"))
        lines;
      Format.fprintf ppf "end@,")
    fastmttf

let pp_gate = function
  | GAnd -> "and"
  | GOr -> "or"
  | GNot -> "not"
  | GNand -> "nand"
  | GNor -> "nor"
  | GKofn _ -> "kofn"
  | GNkofn _ -> "nkofn"

let rec pp_stmt ppf s =
  match s with
  | SBind (`Single (n, e)) -> Format.fprintf ppf "bind %s %a@," n expr e
  | SBind (`Block binds) ->
      Format.fprintf ppf "bind@,";
      List.iter (fun (n, e) -> Format.fprintf ppf "%s %a@," n expr e) binds;
      Format.fprintf ppf "end@,"
  | SVar (n, e) -> Format.fprintf ppf "var %s %a@," n expr e
  | SFunc (n, ps, FExpr e) ->
      Format.fprintf ppf "func %s(%s) %a@," n (String.concat ", " ps) expr e
  | SFunc (n, ps, FStmts body) ->
      Format.fprintf ppf "func %s(%s)@,%aend@," n (String.concat ", " ps) pp_stmts body
  | SExpr items ->
      Format.fprintf ppf "expr %s@,"
        (String.concat ", " (List.map (fun (_, e) -> expr_to_string e) items))
  | SEcho text -> Format.fprintf ppf "echo %s@," text
  | SIf (clauses, els) ->
      List.iteri
        (fun i (c, body) ->
          Format.fprintf ppf "%s %a@,%a"
            (if i = 0 then "if" else "elseif")
            expr c pp_stmts body)
        clauses;
      if els <> [] then Format.fprintf ppf "else@,%a" pp_stmts els;
      Format.fprintf ppf "end@,"
  | SWhile (c, body) -> Format.fprintf ppf "while %a@,%aend@," expr c pp_stmts body
  | SLoop (v, lo, hi, step, body) ->
      Format.fprintf ppf "%a@,%aend@," pp_loop_header (v, lo, hi, step) pp_stmts body
  | SEpsilon (what, e) -> Format.fprintf ppf "epsilon %s %a@," what expr e
  | SFormat e -> Format.fprintf ppf "format %a@," expr e
  | SSwitch (k, v) ->
      if v = "" then Format.fprintf ppf "%s@," k else Format.fprintf ppf "%s %s@," k v
  | SModel m -> pp_model ppf m

and pp_stmts ppf = List.iter (pp_stmt ppf)

and pp_params ppf = function
  | [] -> ()
  | ps -> Format.fprintf ppf "(%s)" (String.concat ", " ps)

and pp_model ppf = function
  | MBlock { name; params; lines } ->
      Format.fprintf ppf "block %s%a@," name pp_params params;
      List.iter
        (fun l ->
          match l with
          | BComp (n, e) -> Format.fprintf ppf "comp %s %a@," n dist e
          | BCombine (`Series, n, parts) ->
              Format.fprintf ppf "series %s %s@," n (String.concat " " parts)
          | BCombine (`Parallel, n, parts) ->
              Format.fprintf ppf "parallel %s %s@," n (String.concat " " parts)
          | BKofn (n, k, nn, parts) ->
              Format.fprintf ppf "kofn %s %a,%a,%s@," n expr k expr nn
                (String.concat " " parts))
        lines;
      Format.fprintf ppf "end@,"
  | MFtree { name; params; lines } ->
      Format.fprintf ppf "ftree %s%a@," name pp_params params;
      List.iter
        (fun l ->
          match l with
          | FBasic (n, e) -> Format.fprintf ppf "basic %s %a@," n dist e
          | FRepeat (n, e) -> Format.fprintf ppf "repeat %s %a@," n dist e
          | FTransfer (a, b) -> Format.fprintf ppf "transfer %s %s@," a b
          | FGate (n, GKofn (k, nn), inputs) ->
              Format.fprintf ppf "kofn %s %a,%a,%s@," n expr k expr nn
                (String.concat " " inputs)
          | FGate (n, GNkofn (k, nn), inputs) ->
              Format.fprintf ppf "nkofn %s %a,%a,%s@," n expr k expr nn
                (String.concat " " inputs)
          | FGate (n, g, inputs) ->
              Format.fprintf ppf "%s %s %s@," (pp_gate g) n (String.concat " " inputs))
        lines;
      Format.fprintf ppf "end@,"
  | MMarkov { name; params; chain } ->
      Format.fprintf ppf "markov %s%a@,%a" name pp_params params (pp_chain expr) chain
  | MSemimark { name; params; mode; chain } ->
      Format.fprintf ppf "semimark %s%a%s@,%a" name pp_params params
        (match mode with `Uncond -> " uncond" | `Cond -> "")
        (pp_chain dist) chain
  | MPepa { name; params; past } ->
      (* reprint from the parsed AST (canonical form), so pretty-printing
         then re-parsing is the identity on the model *)
      Format.fprintf ppf "pepa %s%a@," name pp_params params;
      String.split_on_char '\n' (Sharpe_pepa.Ast.pp_model past)
      |> List.iter (fun l -> if l <> "" then Format.fprintf ppf "%s@," l);
      Format.fprintf ppf "end@,"
  | m ->
      (* remaining model types print a compact placeholder header; they are
         exercised through execution rather than printing *)
      Format.fprintf ppf "* <%s model %s>@,"
        (match m with
        | MMstree _ -> "mstree"
        | MPms _ -> "pms"
        | MRelgraph _ -> "relgraph"
        | MGraph _ -> "graph"
        | MPfqn _ -> "pfqn"
        | MMpfqn _ -> "mpfqn"
        | MMrgp _ -> "mrgp"
        | MSrn { gspn = true; _ } -> "gspn"
        | MSrn _ -> "srn"
        | MBlock _ | MFtree _ | MMarkov _ | MSemimark _ | MPepa _ -> assert false)
        (model_name m)

let stmt ppf s = Format.fprintf ppf "@[<v>%a@]" pp_stmt s

let program ppf stmts = Format.fprintf ppf "@[<v>%a@]" pp_stmts stmts

let program_to_string stmts = Format.asprintf "%a" program stmts
