(** The optimization pipeline applied to (super-)handler bodies.

    Passes run round-robin to a fixpoint (bounded by {!max_rounds});
    inlining runs first so the cleanup passes see the expanded code.
    Individual passes can be switched off — the ablation benchmark uses
    this to attribute speedups. *)

type pass = {
  name : string;
  apply : Ast.program -> Ast.block -> Ast.block;
      (** [apply prog b] rewrites [b]; [prog] provides purity context for
          user-procedure calls *)
}

val inline : pass
val constfold : pass
val copyprop : pass
val cse : pass
val licm : pass
val dce : pass

(** [inline; constfold; copyprop; cse; licm; dce] *)
val default_passes : pass list

val max_rounds : int

val optimize_block : ?passes:pass list -> Ast.program -> Ast.block -> Ast.block
val optimize_proc : ?passes:pass list -> Ast.program -> Ast.proc -> Ast.proc
val optimize_program : ?passes:pass list -> Ast.program -> Ast.program
