(* Substitutions and alpha-renaming.

   Handler merging concatenates bodies that were written independently, so
   every local of every merged segment is renamed apart first; subsumption
   replaces [Arg i] references of an inlined handler with temporaries bound
   to the raise-site argument expressions. *)

open Ast

(* Rename every local variable (parameters and let/assign targets) of a
   block according to [map]; names not in [map] are left alone. *)
let rename_locals (map : (string, string) Hashtbl.t) (b : block) : block =
  let rn x = match Hashtbl.find_opt map x with Some y -> y | None -> x in
  let rec stmt = function
    | Let (x, e) -> Let (rn x, expr e)
    | Assign (x, e) -> Assign (rn x, expr e)
    | Set_global (g, e) -> Set_global (g, expr e)
    | If (c, t, f) -> If (expr c, List.map stmt t, List.map stmt f)
    | While (c, body) -> While (expr c, List.map stmt body)
    | Expr e -> Expr (expr e)
    | Raise { event; mode; args } -> Raise { event; mode; args = List.map expr args }
    | Emit (tag, args) -> Emit (tag, List.map expr args)
    | Return (Some e) -> Return (Some (expr e))
    | Return None -> Return None
  and expr e =
    Rewrite.expr (function Var x -> Var (rn x) | e -> e) e
  in
  List.map stmt b

(* Rename all locals of [b] to fresh names derived from [prefix]; returns
   the renamed block and the renaming used (so parameters can be located
   afterwards). *)
let freshen ~prefix (locals : string list) (b : block) :
    block * (string, string) Hashtbl.t =
  let map = Hashtbl.create 16 in
  List.iter
    (fun x ->
      if not (Hashtbl.mem map x) then
        Hashtbl.add map x (Fresh.var (prefix ^ "_" ^ x)))
    locals;
  (rename_locals map b, map)

(* All locals of a block: everything written plus parameters supplied by
   the caller. *)
let locals_of (params : string list) (b : block) : string list =
  let writes = Analysis.block_writes b in
  params @ Analysis.SS.elements (Analysis.SS.diff writes (Analysis.SS.of_list params))

(* Replace [Arg i] with [args.(i)] (or Unit when out of range).  Used when
   a handler body is inlined at a raise site: the inlined body's positional
   arguments become the raise site's argument temporaries. *)
let replace_args (args : expr array) (b : block) : block =
  Rewrite.block_exprs
    (function
      | Arg i when i >= 0 && i < Array.length args -> args.(i)
      | Arg _ -> Lit Value.Unit
      | e -> e)
    b
