(* Pretty-printer for HIR; output is re-parseable by [Parse]. *)

open Ast

let rec pp_expr ppf = function
  | Lit v -> Value.pp ppf v
  | Var x -> Fmt.string ppf x
  | Global g -> Fmt.pf ppf "global %s" g
  | Arg i -> Fmt.pf ppf "arg %d" i
  | Binop (op, a, b) ->
    Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_to_string op) pp_expr b
  | Unop (op, a) -> Fmt.pf ppf "(%s%a)" (unop_to_string op) pp_expr a
  | Call (f, args) ->
    Fmt.pf ppf "%s(%a)" f Fmt.(list ~sep:(any ", ") pp_expr) args

let rec pp_stmt ppf = function
  | Let (x, e) -> Fmt.pf ppf "let %s = %a;" x pp_expr e
  | Assign (x, e) -> Fmt.pf ppf "%s = %a;" x pp_expr e
  | Set_global (g, e) -> Fmt.pf ppf "global %s = %a;" g pp_expr e
  | If (c, t, []) -> Fmt.pf ppf "@[<v 2>if (%a) %a@]" pp_expr c pp_block t
  | If (c, t, e) ->
    Fmt.pf ppf "@[<v 2>if (%a) %a else %a@]" pp_expr c pp_block t pp_block e
  | While (c, b) -> Fmt.pf ppf "@[<v 2>while (%a) %a@]" pp_expr c pp_block b
  | Expr e -> Fmt.pf ppf "%a;" pp_expr e
  | Raise { event; mode; args } ->
    Fmt.pf ppf "raise %s %s(%a);" (mode_to_string mode) event
      Fmt.(list ~sep:(any ", ") pp_expr) args
  | Emit (tag, args) ->
    Fmt.pf ppf "emit(%S%a);" tag
      Fmt.(list ~sep:nop (any ", " ++ pp_expr)) args
  | Return None -> Fmt.string ppf "return;"
  | Return (Some e) -> Fmt.pf ppf "return %a;" pp_expr e

and pp_block ppf b =
  Fmt.pf ppf "{@;<1 2>@[<v>%a@]@;}" Fmt.(list ~sep:cut pp_stmt) b

let pp_proc ppf { name; params; body } =
  Fmt.pf ppf "@[<v>handler %s(%a) %a@]" name
    Fmt.(list ~sep:(any ", ") string) params pp_block body

let pp_program ppf p = Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:(cut ++ cut) pp_proc) p

let proc_to_string p = Fmt.str "%a" pp_proc p
let program_to_string p = Fmt.str "%a" pp_program p
