(* Handlers: the reaction code bound to events (Sec. 2.1).

   A handler is either native OCaml (used by framework glue and by the
   test suite) or a named HIR procedure in the runtime's program (used by
   all application handlers, so that the optimizer can merge and transform
   them). *)

open Podopt_hir

type code =
  | Native of (Interp.host -> Value.t list -> unit)
  | Hir of string  (* procedure name in the runtime's HIR program *)

type t = {
  name : string;       (* unique handler name, e.g. "FEC_SFU1" *)
  code : code;
}

let native name fn = { name; code = Native fn }
let hir name ~proc = { name; code = Hir proc }
let hir' name = { name; code = Hir name }

let pp ppf h = Fmt.string ppf h.name
