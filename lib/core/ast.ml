(* Abstract syntax of the SHARPE language (thesis chapters 2-3).

   Model bodies are kept close to the concrete input: they are instantiated
   (parameters bound, expressions evaluated, $()-templates expanded) only
   when an analysis function asks for them, which is what makes hierarchical
   and parameterized models work. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | BAnd
  | BOr
  | BEq
  | BNeq
  | BLt
  | BGt
  | BLe
  | BGe

type expr =
  | Num of float
  | Ident of string
  | Call of string * expr list list
      (* f(a, b; c; d) => groups [[a; b]; [c]; [d]] — SHARPE separates model
         arguments from measure arguments with semicolons *)
  | Binop of binop * expr * expr
  | Neg of expr
  | Not of expr
  | TokCount of string (* #(place) *)
  | Enabled of string (* ?(trans) *)
  | Tmpl of tname (* $(i)-style templated state name used as an argument *)

(* templated names: $(expr) splices the (integer) value into the name, used
   for Markov-chain states generated inside loops *)
and npart = Lit of string | Sub of expr
and tname = npart list

type fbody = FExpr of expr | FStmts of stmt list

and stmt =
  | SBind of [ `Single of string * expr | `Block of (string * expr) list ]
  | SVar of string * expr (* re-evaluated on every use *)
  | SFunc of string * string list * fbody
  | SExpr of (string * expr) list (* display text + expression *)
  | SEcho of string
  | SIf of (expr * stmt list) list * stmt list
  | SWhile of expr * stmt list
  | SLoop of string * expr * expr * expr option * stmt list
  | SEpsilon of string * expr
  | SFormat of expr
  | SSwitch of string * string (* verbatim switches: bdd on, ltimep, debug x *)
  | SModel of model

and model =
  | MBlock of { name : string; params : string list; lines : blockline list }
  | MFtree of { name : string; params : string list; lines : ftreeline list }
  | MMstree of { name : string; params : string list; lines : mstreeline list }
  | MPms of { name : string; params : string list; phases : (expr * string * expr) list }
  | MRelgraph of { name : string; params : string list; edges : rg_edge list }
  | MGraph of {
      name : string;
      params : string list;
      edges : (string * string list) list;
      glines : graphline list;
    }
  | MPfqn of {
      name : string;
      params : string list;
      routing : (string * string * expr) list;
      stations : (string * stationkind) list;
      chains : (string * expr) list;
    }
  | MMpfqn of {
      name : string;
      params : string list;
      routing : (string * string * string * expr) list; (* chain, from, to, p *)
      stations : (string * stationkind * (string * expr list) list) list;
          (* per-station optional per-chain rate overrides *)
      chains : (string * expr) list;
    }
  | MMarkov of { name : string; params : string list; chain : chain }
  | MSemimark of {
      name : string;
      params : string list;
      mode : [ `Cond | `Uncond ];
      chain : chain; (* edge values are distributions *)
    }
  | MMrgp of {
      name : string;
      params : string list;
      edges : (string * [ `NonReg | `Reg ] * string * expr) list;
      rewards : (string * expr) list;
    }
  | MPepa of {
      name : string;
      params : string list;
      past : Sharpe_pepa.Ast.model; (* parsed once, at SHARPE parse time *)
    }
  | MSrn of {
      name : string;
      params : string list;
      gspn : bool; (* declared with the gspn keyword (dep instead of placedep) *)
      places : (string * expr) list;
      timed : srn_trans list;
      immediate : srn_trans list;
      inputs : (string * string * expr) list; (* place, trans, cardinality *)
      outputs : (string * string * expr) list; (* trans, place, cardinality *)
      inhibitors : (string * string * expr) list;
    }

(* A markov or semimark chain: edges (source, target, value), reward
   lines and a default, initial probabilities, and the fastmttf states *)
and chain = {
  edges : (tname * tname * expr) looped list;
  rewards : ((tname * expr) looped list * expr option) option;
  init : (tname * expr) looped list;
  fastmttf : (tname * [ `Reada | `Readf ]) list option;
}

(* an item of a chain section, or a [loop v, lo, hi {, step}] over more *)
and 'a looped = Item of 'a | Loop of string * expr * expr * expr option * 'a looped list

and blockline =
  | BComp of string * expr
  | BCombine of [ `Series | `Parallel ] * string * string list
  | BKofn of string * expr * expr * string list

and ftreeline =
  | FBasic of string * expr
  | FRepeat of string * expr
  | FTransfer of string * string
  | FGate of string * fgate * string list

and fgate =
  | GAnd
  | GOr
  | GNot
  | GNand
  | GNor
  | GKofn of expr * expr
  | GNkofn of expr * expr

and mstreeline =
  | MsBasic of string * string * expr (* component, state, probability ep *)
  | MsTransfer of string * string (* alias -> name(:state) *)
  | MsGate of string * msgate * string list

and msgate = MsAnd | MsOr | MsKofn of expr * expr

and rg_edge = {
  re_from : string;
  re_to : string;
  re_dist : expr;
  re_bidirect : bool;
  re_transfers : (string * string) list;
}

and graphline =
  | GExit of string * gexit
  | GProb of string * string * expr
  | GDist of string * expr
  | GMultpath

and gexit = ExProb | ExMax | ExMin | ExKofn of expr * expr

and stationkind =
  | SkIs of expr
  | SkFcfs of expr
  | SkPs of expr
  | SkLcfspr of expr
  | SkMs of expr * expr
  | SkLds of expr list

and srn_trans = {
  st_name : string;
  st_rate : [ `Ind of expr | `Placedep of string * expr | `Gendep of expr ];
  st_guard : expr option;
  st_priority : expr option;
}

let model_name = function
  | MBlock { name; _ } | MFtree { name; _ } | MMstree { name; _ }
  | MPms { name; _ } | MRelgraph { name; _ } | MGraph { name; _ }
  | MPfqn { name; _ } | MMpfqn { name; _ } | MMarkov { name; _ }
  | MSemimark { name; _ } | MMrgp { name; _ } | MSrn { name; _ }
  | MPepa { name; _ } ->
      name

let model_params = function
  | MBlock { params; _ } | MFtree { params; _ } | MMstree { params; _ }
  | MPms { params; _ } | MRelgraph { params; _ } | MGraph { params; _ }
  | MPfqn { params; _ } | MMpfqn { params; _ } | MMarkov { params; _ }
  | MSemimark { params; _ } | MMrgp { params; _ } | MSrn { params; _ }
  | MPepa { params; _ } ->
      params
