(** An X client: widget tree + event queue + the three handler
    mechanisms mapped onto the event runtime.

    Mapping: a translation firing with action sequence [a1; a2] raises
    the runtime event ["ACT__a1__a2"] whose handlers are the action
    procedures in sequence (the Fig. 7 merging shape); a widget event
    handler for kind K on widget W binds to ["XEV__W__K"]; callback list
    C of widget W binds to ["CB__W__C"] and widget code invokes it by a
    synchronous raise — the paper's "open up callbacks one step further"
    subsumption target. *)

open Podopt_eventsys
module V := Podopt_hir.Value

type t = {
  runtime : Runtime.t;
  root : Widget.t;
  queue : Xevent.t Queue.t;
  actions : (string, string) Hashtbl.t;
  mutable action_events : string list;
  mutable focus : Widget.t option;
  mutable timeout_count : int;
  mutable dispatched : int;
}

val action_event_name : string list -> string
val xev_event_name : Widget.t -> Xevent.kind -> string
val callback_event_name : widget:string -> callback:string -> string

(** Creates the runtime and installs the X framework primitives. *)
val create : ?costs:Costs.model -> root:Widget.t -> unit -> t

(** Extend the client's HIR program (widget behaviours). *)
val add_program : t -> string -> unit

exception Unknown_action of string

(** Map an action name to its HIR procedure. *)
val register_action : t -> name:string -> proc:string -> unit

(** Bind runtime events for every translation, event handler and
    callback in the widget tree (Xt's "realize").  Raises
    {!Unknown_action} for translations naming unregistered actions. *)
val realize : t -> unit

val set_focus : t -> Widget.t -> unit

(** Queue an event from the (simulated) server; X clients queue events
    and dispatch them one at a time. *)
val post : t -> Xevent.t -> unit

(** Routing: explicit window id, else focus for key events, else pointer
    position. *)
val route : t -> Xevent.t -> Widget.t option

(** Dispatch one queued event: primitive handlers first (if mask-
    selected), then the first matching translation.  False when empty. *)
val process_one : t -> bool

val process_all : t -> unit

(** Xt-style timeout: run the procedure after a virtual-time delay. *)
val add_timeout : t -> delay:int -> proc:string -> unit

(** Drain timed/async work. *)
val run_pending : ?until:int -> t -> unit

(** Mean response time (virtual units) of a translation's action event —
    the Fig. 13 metric. *)
val action_response_time : t -> string list -> float
