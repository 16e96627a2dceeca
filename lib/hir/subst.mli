(** Substitutions and alpha-renaming.

    Handler merging concatenates bodies that were written independently,
    so every local of every merged segment is renamed apart; subsumption
    replaces an inlined handler's positional argument references with
    temporaries bound at the raise site. *)

(** Rename locals according to [map]; unmapped names are untouched. *)
val rename_locals : (string, string) Hashtbl.t -> Ast.block -> Ast.block

(** [freshen ~prefix locals b] renames each of [locals] to a fresh name
    derived from [prefix]; returns the renamed block and the renaming. *)
val freshen :
  prefix:string -> string list -> Ast.block -> Ast.block * (string, string) Hashtbl.t

(** Parameters plus every variable written in the block. *)
val locals_of : string list -> Ast.block -> string list

(** Replace [Arg i] by [args.(i)] ([Unit] beyond the array). *)
val replace_args : Ast.expr array -> Ast.block -> Ast.block
