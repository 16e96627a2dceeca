(* The optimization pipeline applied to (super-)handler bodies.

   Passes run in a round-robin until a fixpoint (or the iteration bound)
   is reached; inlining runs first so the cleanup passes see the expanded
   code.  Individual passes can be switched off, which the ablation
   benchmark uses to attribute speedups (Sec. 4's analysis distinguishes
   marshaling, merging and compiler-optimization contributions). *)

type pass = {
  name : string;
  apply : Ast.program -> Ast.block -> Ast.block;
}

let inline = { name = "inline"; apply = (fun prog b -> Opt_inline.pass prog b) }
let constfold = { name = "constfold"; apply = Opt_constfold.pass }
let copyprop = { name = "copyprop"; apply = Opt_copyprop.pass }
let cse = { name = "cse"; apply = Opt_cse.pass }
let licm = { name = "licm"; apply = Opt_licm.pass }
let dce = { name = "dce"; apply = Opt_dce.pass }

let default_passes = [ inline; constfold; copyprop; cse; licm; dce ]

let max_rounds = 8

let optimize_block ?(passes = default_passes) (prog : Ast.program) (b : Ast.block) :
    Ast.block =
  let rec loop n b =
    if n >= max_rounds then b
    else
      let b' = List.fold_left (fun b p -> p.apply prog b) b passes in
      if Ast.equal_block b b' then b else loop (n + 1) b'
  in
  loop 0 b

let optimize_proc ?passes (prog : Ast.program) (p : Ast.proc) : Ast.proc =
  { p with body = optimize_block ?passes prog p.body }

let optimize_program ?passes (prog : Ast.program) : Ast.program =
  List.map (optimize_proc ?passes prog) prog
