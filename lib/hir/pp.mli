(** Pretty-printer for HIR.  Output is re-parseable by {!Parse}. *)

val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_stmt : Format.formatter -> Ast.stmt -> unit
val pp_block : Format.formatter -> Ast.block -> unit
val pp_proc : Format.formatter -> Ast.proc -> unit
val pp_program : Format.formatter -> Ast.program -> unit
val proc_to_string : Ast.proc -> string
val program_to_string : Ast.program -> string
