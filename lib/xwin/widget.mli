(** Widgets: the building blocks of X clients (Sec. 2.3).

    A widget has geometry (used for pointer routing), an event mask, a
    translation table (event -> action names), per-widget event handlers
    (the most primitive mechanism) and named callback lists.  Actions
    have client-global scope; event handlers and callbacks are scoped to
    their widget — the three mechanisms and scopes of the paper. *)

type t = {
  id : int;
  name : string;
  class_ : string;
  mutable x : int;        (** relative to the parent *)
  mutable y : int;
  mutable width : int;
  mutable height : int;
  mutable mapped : bool;  (** visible on screen *)
  mutable parent : t option;
  mutable children : t list;
  mutable event_mask : int;
  mutable translations : Translation.t;
  mutable event_handlers : (Xevent.kind * string) list;
  mutable callbacks : (string * string list) list;
}

val create :
  ?x:int -> ?y:int -> ?width:int -> ?height:int -> name:string -> class_:string ->
  unit -> t

val add_child : t -> t -> unit
val map : t -> unit
val unmap : t -> unit

(** Add kinds to the widget's event mask. *)
val select_events : t -> Xevent.kind list -> unit

val set_translations : t -> Translation.t -> unit

(** Register a primitive event handler (HIR procedure name) and select
    the kind. *)
val add_event_handler : t -> Xevent.kind -> string -> unit

(** Append a procedure to the named callback list. *)
val add_callback : t -> name:string -> string -> unit

(** Absolute screen origin. *)
val abs_origin : t -> int * int

val contains : t -> x:int -> y:int -> bool

(** Deepest mapped descendant containing the point (topmost child
    wins). *)
val pick : t -> x:int -> y:int -> t option

val find_by_id : t -> int -> t option
val iter : (t -> unit) -> t -> unit
