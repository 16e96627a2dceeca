(** The event graph and the GraphBuilder algorithm (Fig. 4).

    There is an edge from event [a] to event [b] iff [b] ever immediately
    follows [a] in the trace; its weight counts how often.  Each edge
    records the activation modes of [b] on those occurrences: only an
    edge all of whose traversals were synchronous {e and causal} (raised
    from inside handler execution) implies causality (Sec. 3.1) and may
    participate in an event chain. *)

open Podopt_hir

type edge = {
  src : string;
  dst : string;
  mutable weight : int;
  mutable sync : int;   (** causal synchronous traversals *)
  mutable async : int;  (** asynchronous or non-causal traversals *)
  mutable timed : int;
}

type node = {
  name : string;
  mutable occurrences : int;
  mutable raised_sync : int;
  mutable raised_async : int;
  mutable raised_timed : int;
}

type t = {
  edges : (string * string, edge) Hashtbl.t;
  nodes : (string, node) Hashtbl.t;
}

val create : unit -> t

(** Find-or-create a node. *)
val node : t -> string -> node

val record_occurrence : t -> string -> Ast.mode -> unit

(** Find-or-create an edge, with zero counters when new, and its
    endpoint nodes. *)
val edge : t -> src:string -> dst:string -> edge

(** Add one traversal.  [causal] is false when the destination raise came
    from outside any handler (depth 0): it cannot have been caused by the
    preceding event, so it never counts as synchronous-causal. *)
val add_edge : ?causal:bool -> t -> src:string -> dst:string -> Ast.mode -> unit

(** GraphBuilder over an (event, mode, depth) occurrence sequence. *)
val build_seq : (string * Ast.mode * int) list -> t

(** GraphBuilder treating every raise as causal (tests, synthetic data). *)
val build : (string * Ast.mode) list -> t

(** The trace's window as a graph: equal to [build_seq] over the
    window's occurrences, down to the order nodes and edges are
    inserted. *)
val of_trace : Podopt_eventsys.Trace.t -> t

(** Add the trace's window counters into a graph: [merge_into ~into
    (of_trace trace)], without building the window's graph. *)
val merge_trace : into:t -> Podopt_eventsys.Trace.t -> unit

(** {!merge_trace} of a saved window. *)
val merge_window : into:t -> Podopt_eventsys.Trace.window -> unit

(** Accumulate [src]'s node and edge counters into [into].  Counter
    addition is associative and commutative, so merging graphs from
    several runs or shards is order-independent. *)
val merge_into : into:t -> t -> unit

(** Fresh graph holding the sum of all [graphs]. *)
val merge_all : t list -> t

val edges : t -> edge list
val nodes : t -> node list
val find_edge : t -> src:string -> dst:string -> edge option
val edge_count : t -> int
val node_count : t -> int

(** Sum of edge weights = trace length - 1. *)
val total_weight : t -> int

val successors : t -> string -> edge list
val predecessors : t -> string -> edge list

(** Every traversal was a causal synchronous raise. *)
val edge_is_sync : edge -> bool

(** Deterministic ordering (weight desc, then names) for printing. *)
val sorted_edges : t -> edge list

val pp : Format.formatter -> t -> unit
