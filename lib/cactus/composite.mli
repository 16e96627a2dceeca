(** A Cactus composite protocol (Fig. 2): a configuration of
    micro-protocols instantiated into one event runtime.  The same
    configuration always yields the same handler sequences — the
    predictability the optimizer exploits. *)

open Podopt_eventsys

type t = {
  name : string;
  micro_protocols : Micro_protocol.t list;
}

(** Raised when two micro-protocols define a handler of the same name. *)
exception Duplicate_handler of string

(** Raised by {!instantiate} when static checking of the handler code
    finds an error (use-before-assignment, unknown callee, ...). *)
exception Invalid_handler_code of string

val make : name:string -> Micro_protocol.t list -> t

(** Concatenated HIR program; raises {!Duplicate_handler}. *)
val program : t -> Podopt_hir.Ast.program

(** Statically check the handler code, extend the runtime's program and
    bind everything.  Raises {!Invalid_handler_code} on checker errors. *)
val instantiate : Runtime.t -> t -> unit
