(** Execution tracing (Sec. 3.1).

    Two instrumentation levels mirror the paper's two profiling phases.
    Event-level recording counts every occurrence in a {e window}: per
    event, its occurrences by activation mode, and per [(prev, cur)]
    pair of consecutive occurrences, the edge counters GraphBuilder
    (Fig. 4) would fold from the same sequence.  The window is all the
    analysis reads ({!Podopt_profile.Event_graph.of_trace}), so an
    on-line profiler (the adaptive controller) keeps only counters, and
    recording an occurrence allocates nothing once the window's tables
    cover the runtime's events.

    The entry log is for callers that read entries: with
    [enable_events ~log:true] every occurrence is also kept as an
    {!Event_raised} entry, and handler-level logging, enabled
    selectively for the hot events, records dispatch boundaries and
    handler begin/end (the nesting lets the analysis detect subsumable
    synchronous raises, Fig. 8).  {!clear} empties both. *)

open Podopt_hir

type entry =
  | Event_raised of { event : string; mode : Ast.mode; time : int; depth : int }
      (** synchronous raises at the raise site; queued activations at
          dispatch time (occurrence order) *)
  | Dispatch_begin of { event : string; time : int; depth : int }
  | Dispatch_end of { event : string; time : int; depth : int }
  | Handler_begin of { event : string; handler : string; time : int; depth : int }
  | Handler_end of { event : string; handler : string; time : int; depth : int }

type t

val create : unit -> t

(** Empty the window ([prev] included, so the next occurrence adds no
    edge) and the entry log. *)
val clear : t -> unit

(** Count occurrences in the window; with [log] (default [true]) also
    keep each one as an {!Event_raised} entry. *)
val enable_events : ?log:bool -> t -> unit

val disable_events : t -> unit

(** Enable dispatch/handler instrumentation for the given events only. *)
val enable_handlers : t -> string list -> unit

val disable_handlers : t -> unit
val handler_instrumented : t -> string -> bool

(** {1 Recording (called by the runtime)} *)

(** One occurrence of an event, identified by its id in the runtime's
    event table.  [depth] is the raise depth: 0 means the raise came
    from outside any handler and cannot have been caused by the
    preceding occurrence. *)
val record_event : t -> Event.t -> mode:Ast.mode -> time:int -> depth:int -> unit

val record_dispatch_begin : t -> event:string -> time:int -> depth:int -> unit
val record_dispatch_end : t -> event:string -> time:int -> depth:int -> unit

val record_handler_begin :
  t -> event:string -> handler:string -> time:int -> depth:int -> unit

val record_handler_end :
  t -> event:string -> handler:string -> time:int -> depth:int -> unit

(** A trace holding [entries] (chronological) on its log, its window
    counting their {!Event_raised} entries: the trace a runtime recorded
    them into, read back.  Recording is off. *)
val of_entries : entry list -> t

(** {1 Reading the window} *)

(** Counters of a node (an event) or of an edge.  [total] is a node's
    occurrences or an edge's weight, and equals [sync + async + timed].
    An edge counts a [Sync] raise at depth > 0 as [sync]; a [Sync] raise
    at depth 0 and an [Async] raise as [async]; a [Timed] raise as
    [timed].  A node counts the raise's mode alone. *)
type counts = { total : int; sync : int; async : int; timed : int }

(** Occurrences in the window. *)
val occurrences : t -> int

(** The window's events, in order of first occurrence. *)
val iter_nodes : t -> (string -> counts -> unit) -> unit

(** The window's [(src, dst)] edges, in order of first traversal. *)
val iter_edges : t -> (string -> string -> counts -> unit) -> unit

(** {1 Saving the window} *)

(** An immutable copy of the window: its counters, in the orders
    {!iter_nodes} and {!iter_edges} visit them, its last occurrence
    ([None] in an empty window, so the next occurrence adds no edge) and
    its occurrence count. *)
type window = {
  window_nodes : (string * counts) list;
  window_edges : (string * string * counts) list;
  window_prev : string option;
  window_occurrences : int;
}

(** Copy the window out: O(events and edges it saw), however many
    occurrences it counts. *)
val save : t -> window

(** Make a saved window the live one, interning its event names with
    [intern] (the runtime's table, whose ids may differ from the saving
    runtime's).  The entry log is emptied, as by {!clear}.  The trace
    then records on exactly as the saving trace would have. *)
val load : t -> intern:(string -> Event.t) -> window -> unit

(** {1 Reading the log} *)

(** Entries in chronological order. *)
val entries : t -> entry list

(** Entries on the log. *)
val length : t -> int

(** The logged (event, mode) occurrence sequence. *)
val event_sequence : t -> (string * Ast.mode) list

val pp_entry : Format.formatter -> entry -> unit
