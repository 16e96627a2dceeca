(** Tree-walking interpreter for HIR: the {e unoptimized} execution
    engine.

    Each handler invocation builds a fresh environment, looks variables
    up by name, and reports one [tick] per AST node visited; the
    optimizer's payoff is measured against this baseline, mirroring the
    paper's original indirect, marshaled, per-handler execution path. *)

(** The global store: the shared state of one runtime's handlers.

    Append-only: a name gets a slot on first use and keeps it as the
    store grows, so compiled code resolves each [global g] site to a
    slot once per store.  A slot never set reads through the store's
    [unbound] function. *)
module Globals : sig
  type t

  (** [create ~unbound ()] is an empty store; [unbound name] answers a
      read of a global never set (raise, or supply a default). *)
  val create : unbound:(string -> Value.t) -> unit -> t

  (** The slot of [name], allocated (never set) on first use. *)
  val slot : t -> string -> int

  (** Read a slot of this store; a never-set slot reads through
      [unbound]. *)
  val get : t -> int -> Value.t

  val set : t -> int -> Value.t -> unit

  (** By-name read, without allocating a slot. *)
  val find : t -> string -> Value.t

  (** By-name write. *)
  val replace : t -> string -> Value.t -> unit

  (** Fold over the set slots, in slot order; never-set slots are
      skipped. *)
  val fold : (string -> Value.t -> 'a -> 'a) -> t -> 'a -> 'a
end

(** Services the interpreter needs from its embedding (the event runtime
    or a test harness). *)
type host = {
  raise_event : string -> Ast.mode -> Value.t list -> unit;
  globals : Globals.t;
  lock : int -> unit;
      (** [lock n] charges [n] global reads or writes.  The interpreter
          charges each access as it makes it; compiled code may charge
          several at once, at the next point where the clock can be
          read *)
  emit : string -> Value.t list -> unit;
  tick : int -> unit;
      (** [tick n] charges [n] executed AST nodes, at an engine-dependent
          price; batched like [lock] *)
  work : int -> unit;  (** intrinsic primitive work; engine-independent *)
}

(** A fresh host that ignores raises, emits and costs.  Its globals live
    in a fresh store, where a never-set read raises {!Value.Type_error}. *)
val null_host : unit -> host

(** Internal control-flow exception for [return]; escapes only on
    malformed use. *)
exception Return_value of Value.t

exception Unbound_variable of string

(** Raised when handler code recurses past {!max_call_depth} (a
    catchable error instead of an OCaml stack overflow). *)
exception Call_depth_exceeded

val max_call_depth : int

(** [enter_call ()] moves one call level deeper and returns the
    domain's depth counter; the caller decrements it on every exit,
    exceptions included.  Shared by interpreter and compiled code so
    mixed stacks are bounded together. *)
val enter_call : unit -> int ref

(** Shared evaluation of binary/unary operators (also used by the
    compiler and constant folding).  Raise {!Value.Type_error} on bad
    operands; [And]/[Or] here are strict — short-circuiting happens at
    the expression level.  A [Bool] result is one of two shared
    constants, never a fresh box. *)
val eval_binop : Ast.binop -> Value.t -> Value.t -> Value.t

val eval_unop : Ast.unop -> Value.t -> Value.t

(** [run ~host prog name args] executes procedure [name] (on a fresh
    {!null_host} when [host] is omitted).  Missing parameters default to
    [Unit]; the result is the [return] value or [Unit]. *)
val run : ?host:host -> Ast.program -> string -> Value.t list -> Value.t
