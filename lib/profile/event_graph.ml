(* The event graph and the GraphBuilder algorithm (Fig. 4).

   There is an edge from event [a] to event [b] iff [b] ever immediately
   follows [a] in the trace; the edge weight counts how often.  Each edge
   also records the activation modes with which [b] was raised when it
   followed [a]: only an edge all of whose traversals were synchronous
   indicates guaranteed causality (Sec. 3.1) and may participate in an
   event chain. *)

open Podopt_hir
module Trace = Podopt_eventsys.Trace

type edge = {
  src : string;
  dst : string;
  mutable weight : int;
  mutable sync : int;
  mutable async : int;
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

let create () = { edges = Hashtbl.create 64; nodes = Hashtbl.create 32 }

let node t name =
  match Hashtbl.find_opt t.nodes name with
  | Some n -> n
  | None ->
    let n = { name; occurrences = 0; raised_sync = 0; raised_async = 0; raised_timed = 0 } in
    Hashtbl.add t.nodes name n;
    n

let record_occurrence t name (mode : Ast.mode) =
  let n = node t name in
  n.occurrences <- n.occurrences + 1;
  match mode with
  | Ast.Sync -> n.raised_sync <- n.raised_sync + 1
  | Ast.Async -> n.raised_async <- n.raised_async + 1
  | Ast.Timed _ -> n.raised_timed <- n.raised_timed + 1

(* [causal] is false when the destination raise came from outside any
   handler (raise depth 0): such an occurrence cannot have been caused by
   the preceding event, so it must not contribute to the edge's
   synchronous (causality-implying) count even if the raise itself was
   synchronous. *)
(* Find-or-create an edge, and its endpoints. *)
let edge t ~src ~dst =
  match Hashtbl.find_opt t.edges (src, dst) with
  | Some e -> e
  | None ->
    let e = { src; dst; weight = 0; sync = 0; async = 0; timed = 0 } in
    Hashtbl.add t.edges (src, dst) e;
    ignore (node t src);
    ignore (node t dst);
    e

let add_edge ?(causal = true) t ~src ~dst (mode : Ast.mode) =
  let e = edge t ~src ~dst in
  e.weight <- e.weight + 1;
  match mode with
  | Ast.Sync when causal -> e.sync <- e.sync + 1
  | Ast.Sync -> e.async <- e.async + 1
  | Ast.Async -> e.async <- e.async + 1
  | Ast.Timed _ -> e.timed <- e.timed + 1

(* GraphBuilder (Fig. 4): fold the event sequence, adding or bumping the
   (prev, current) edge. *)
let build_seq (sequence : (string * Ast.mode * int) list) : t =
  let t = create () in
  (match sequence with
   | [] -> ()
   | (first, first_mode, _) :: rest ->
     record_occurrence t first first_mode;
     let _ =
       List.fold_left
         (fun prev (ev, mode, depth) ->
           record_occurrence t ev mode;
           add_edge ~causal:(depth > 0) t ~src:prev ~dst:ev mode;
           ev)
         first rest
     in
     ());
  t

let build (sequence : (string * Ast.mode) list) : t =
  build_seq (List.map (fun (e, m) -> (e, m, 1)) sequence)

let add_node_counts into name (c : Trace.counts) =
  let n = node into name in
  n.occurrences <- n.occurrences + c.total;
  n.raised_sync <- n.raised_sync + c.sync;
  n.raised_async <- n.raised_async + c.async;
  n.raised_timed <- n.raised_timed + c.timed

let add_edge_counts into src dst (c : Trace.counts) =
  let e = edge into ~src ~dst in
  e.weight <- e.weight + c.total;
  e.sync <- e.sync + c.sync;
  e.async <- e.async + c.async;
  e.timed <- e.timed + c.timed

(* Add the trace's window counters, visiting events in order of first
   occurrence and then edges in order of first traversal: on an empty
   graph, the order [build_seq] inserts them when folding the same
   occurrences. *)
let merge_trace ~into (trace : Trace.t) =
  Trace.iter_nodes trace (add_node_counts into);
  Trace.iter_edges trace (add_edge_counts into)

(* A saved window keeps the same orders. *)
let merge_window ~into (w : Trace.window) =
  List.iter (fun (name, c) -> add_node_counts into name c) w.Trace.window_nodes;
  List.iter (fun (src, dst, c) -> add_edge_counts into src dst c) w.Trace.window_edges

let of_trace trace =
  let t = create () in
  merge_trace ~into:t trace;
  t

(* Accumulate [src] into [into]: node occurrence counters and edge
   traversal counters add up.  Merging is associative and commutative in
   the resulting counters, which is what makes cross-run profile stores
   order-independent. *)
let merge_into ~into (src : t) =
  Hashtbl.iter
    (fun _ (n : node) ->
      let m = node into n.name in
      m.occurrences <- m.occurrences + n.occurrences;
      m.raised_sync <- m.raised_sync + n.raised_sync;
      m.raised_async <- m.raised_async + n.raised_async;
      m.raised_timed <- m.raised_timed + n.raised_timed)
    src.nodes;
  Hashtbl.iter
    (fun _ (e : edge) ->
      let m = edge into ~src:e.src ~dst:e.dst in
      m.weight <- m.weight + e.weight;
      m.sync <- m.sync + e.sync;
      m.async <- m.async + e.async;
      m.timed <- m.timed + e.timed)
    src.edges

let merge_all graphs =
  let t = create () in
  List.iter (fun g -> merge_into ~into:t g) graphs;
  t

let edges t = Hashtbl.fold (fun _ e acc -> e :: acc) t.edges []
let nodes t = Hashtbl.fold (fun _ n acc -> n :: acc) t.nodes []
let find_edge t ~src ~dst = Hashtbl.find_opt t.edges (src, dst)
let edge_count t = Hashtbl.length t.edges
let node_count t = Hashtbl.length t.nodes

let total_weight t = Hashtbl.fold (fun _ e acc -> acc + e.weight) t.edges 0

let successors t name =
  Hashtbl.fold (fun (s, _) e acc -> if s = name then e :: acc else acc) t.edges []

let predecessors t name =
  Hashtbl.fold (fun (_, d) e acc -> if d = name then e :: acc else acc) t.edges []

(* An edge is "purely synchronous" when every traversal raised the target
   synchronously; only such edges support merging (Sec. 3.2.1). *)
let edge_is_sync (e : edge) = e.sync = e.weight && e.weight > 0

(* Deterministic ordering for printing and tests. *)
let sorted_edges t =
  List.sort
    (fun a b ->
      match compare b.weight a.weight with
      | 0 -> compare (a.src, a.dst) (b.src, b.dst)
      | c -> c)
    (edges t)

let pp ppf t =
  List.iter
    (fun e ->
      Fmt.pf ppf "%s -> %s [%d sync=%d async=%d timed=%d]@." e.src e.dst e.weight
        e.sync e.async e.timed)
    (sorted_edges t)
