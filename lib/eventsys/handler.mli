(** Handlers: the reaction code bound to events (Sec. 2.1).

    A handler is either native OCaml (framework glue, tests) or a named
    HIR procedure in the runtime's program — the latter is what the
    optimizer can merge and transform. *)

open Podopt_hir

type code =
  | Native of (Interp.host -> Value.t list -> unit)
  | Hir of string  (** procedure name in the runtime's HIR program *)

type t = {
  name : string;  (** unique handler name, e.g. "FEC_SFU1" *)
  code : code;
}

val native : string -> (Interp.host -> Value.t list -> unit) -> t

(** [hir name ~proc] binds under [name], running procedure [proc]. *)
val hir : string -> proc:string -> t

(** [hir' name] = [hir name ~proc:name]. *)
val hir' : string -> t

val pp : Format.formatter -> t -> unit
