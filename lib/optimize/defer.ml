(* Deferred pair execution (Sec. 5): "perform minimal processing for A
   and defer the bulk of handling A until the next event occurs.  If the
   next event is B, optimized code for (AB) can then be executed."

   For a deferred event A with follower set {B, C, ...}, each follower
   gets a jointly compiled (A ++ follower) body: A's merged super-handler
   concatenated with the follower's, the follower's positional arguments
   shifted past A's arity, and the whole thing run through the compiler
   passes — so optimizations (CSE, constant propagation) work across the
   two events' former boundary.  Followers without a pair fall back to
   "flush A alone, then handle the follower normally".

   Deferral is only sound when nothing between A and the next event
   observes A's effects; it is therefore opt-in per event rather than
   part of the automatic driver plan.  Events whose handlers raise
   further events or halt are rejected. *)

open Podopt_hir
open Podopt_eventsys

exception Not_deferrable of string

let not_deferrable fmt = Format.kasprintf (fun s -> raise (Not_deferrable s)) fmt

(* Shift every [Arg i] by [delta]. *)
let shift_args (delta : int) (b : Ast.block) : Ast.block =
  Rewrite.block_exprs
    (function Ast.Arg i -> Ast.Arg (i + delta) | e -> e)
    b

(* Build and install the deferral entry for [event] with the given
   follower events. *)
let install ?(passes = Pipeline.default_passes) (rt : Runtime.t) ~(event : string)
    ~(followers : string list) : unit =
  let prog = Runtime.program rt in
  let merged_a, arity_a = Superhandler.merge rt prog ~event in
  if Rewrite.contains_raise merged_a.Ast.body then
    not_deferrable "handlers of %s raise events; deferring them would reorder" event;
  if Chain_merge.contains_halt merged_a.Ast.body then
    not_deferrable "handlers of %s may halt event execution" event;
  let body_a = Pipeline.optimize_block ~passes prog merged_a.Ast.body in
  let alone_proc = { merged_a with Ast.name = "__defer_" ^ event; Ast.body = body_a } in
  let alone = Compile.proc (prog @ [ alone_proc ]) alone_proc.Ast.name in
  let pairs =
    List.filter_map
      (fun follower ->
        match Superhandler.merge rt prog ~event:follower with
        | exception Superhandler.Not_mergeable _ -> None
        | merged_b, arity_b ->
          let shifted = shift_args arity_a merged_b.Ast.body in
          let body = Pipeline.optimize_block ~passes prog (body_a @ shifted) in
          let pair_proc =
            { Ast.name = Printf.sprintf "__defer_%s__%s" event follower;
              params = [];
              body }
          in
          let compiled = Compile.proc (prog @ [ pair_proc ]) pair_proc.Ast.name in
          Some (follower, arity_b, compiled))
      followers
  in
  Runtime.install_deferred rt ~event
    ~covered:(event :: List.map (fun (f, _, _) -> f) pairs)
    ~arity:arity_a ~alone pairs
