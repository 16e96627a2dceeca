(** The binding registry (Sec. 2.1, Fig. 1): maps each event to the
    ordered list of handlers executed when it occurs.

    Bindings are fully dynamic (Cactus semantics).  Every mutation bumps
    a per-event version counter; installed super-handlers are guarded on
    these counters and fall back to the generic path when a covered
    event's bindings changed since optimization (Sec. 3.3). *)

type entry = {
  mutable handlers : (int * Handler.t) list;  (** (order, handler), sorted *)
  mutable version : int;
  mutable next_order : int;
}

type t

val create : unit -> t

(** The (created-on-demand) entry for an event. *)
val entry : t -> Event.t -> entry

(** Bind a handler.  Handlers run in increasing [order]; equal orders run
    in bind order; the default appends at the end. *)
val bind : t -> Event.t -> ?order:int -> Handler.t -> unit

(** Remove all bindings of the handler named [name]; returns whether any
    were removed (no version bump otherwise). *)
val unbind : t -> Event.t -> name:string -> bool

val unbind_all : t -> Event.t -> unit

(** Handlers in execution order. *)
val handlers : t -> Event.t -> Handler.t list

val version : t -> Event.t -> int

val events_with_bindings : t -> Event.table -> Event.t list
