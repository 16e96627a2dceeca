(* A Cactus composite protocol: a configuration of micro-protocols
   instantiated into one event runtime (Fig. 2).

   The composite's HIR program is the concatenation of its
   micro-protocols' sources; binding order across micro-protocols follows
   the configuration order, so the same configuration always yields the
   same handler sequence — the predictability the optimizer exploits. *)

open Podopt_eventsys

type t = {
  name : string;
  micro_protocols : Micro_protocol.t list;
}

exception Duplicate_handler of string
exception Invalid_handler_code of string

let make ~name micro_protocols = { name; micro_protocols }

let program (t : t) : Podopt_hir.Ast.program =
  let prog =
    List.concat_map
      (fun (mp : Micro_protocol.t) -> Podopt_hir.Parse.program mp.Micro_protocol.source)
      t.micro_protocols
  in
  (* handler names must be globally unique within a composite *)
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (p : Podopt_hir.Ast.proc) ->
      if Hashtbl.mem seen p.Podopt_hir.Ast.name then
        raise (Duplicate_handler p.Podopt_hir.Ast.name);
      Hashtbl.add seen p.Podopt_hir.Ast.name ())
    prog;
  prog

(* Instantiate the composite into [rt]: statically check the handler
   code, extend the runtime program, and bind everything.  Checking at
   assembly time surfaces typos that would otherwise only fail when a
   handler first runs mid-experiment. *)
let instantiate (rt : Runtime.t) (t : t) : unit =
  let existing = Runtime.program rt in
  let added = program t in
  let issues = Podopt_hir.Check.errors (Podopt_hir.Check.check_program (existing @ added)) in
  (match issues with
   | [] -> ()
   | issue :: _ ->
     raise (Invalid_handler_code (Fmt.str "%a" Podopt_hir.Check.pp_issue issue)));
  Runtime.set_program rt (existing @ added);
  List.iter (Micro_protocol.bind_all rt) t.micro_protocols
