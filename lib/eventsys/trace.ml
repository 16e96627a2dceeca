(* Execution tracing (Sec. 3.1).

   Event-level recording counts every occurrence in a window: dense
   tables indexed by the runtime's event ids, holding per event its
   occurrences by mode and per (prev, cur) id pair the edge counters of
   GraphBuilder (Fig. 4).  The tables grow on demand, like
   [Runtime.event_time], so once they cover the runtime's events an
   occurrence costs a few increments and allocates nothing.  The edge
   table is quadratic in the ids it covers, which suits runtimes that
   intern a few dozen events at most (chat interns 3, CTP about 20).
   Each table also remembers the order in which the window first saw its
   events and edges: building a graph in that order inserts exactly what
   folding the occurrence sequence would, in the same order.

   The entry log serves callers that read entries (the paper tools, the
   handler-level profile, the tests): occurrences go on it only with
   [enable_events ~log:true], and handler-level entries only for the
   events [enable_handlers] names. *)

open Podopt_hir

type entry =
  | Event_raised of { event : string; mode : Ast.mode; time : int; depth : int }
  | Dispatch_begin of { event : string; time : int; depth : int }
  | Dispatch_end of { event : string; time : int; depth : int }
  | Handler_begin of { event : string; handler : string; time : int; depth : int }
  | Handler_end of { event : string; handler : string; time : int; depth : int }

type counts = { total : int; sync : int; async : int; timed : int }

(* Every counter table holds four ints per slot: total, sync, async,
   timed.  A node's slot is its id; an edge's is [prev * cap + cur]. *)
let width = 4

type t = {
  mutable entries : entry list;  (* reversed *)
  mutable count : int;
  mutable events_enabled : bool;
  mutable log_events : bool;
  mutable handler_events : (string, unit) Hashtbl.t option;
      (* None = handler instrumentation off; Some set = only those events *)
  (* the window *)
  mutable cap : int;  (* ids the tables cover *)
  mutable names : string array;  (* by id, stored when first seen *)
  mutable nodes : int array;
  mutable edges : int array;
  mutable node_order : int array;  (* ids, in order of first occurrence *)
  mutable nnodes : int;
  mutable edge_order : int array;  (* edge slots, in order of first traversal *)
  mutable nedges : int;
  mutable prev : int;  (* id of the last occurrence; -1 in an empty window *)
  mutable occurrences : int;
}

let create () =
  {
    entries = [];
    count = 0;
    events_enabled = false;
    log_events = false;
    handler_events = None;
    cap = 0;
    names = [||];
    nodes = [||];
    edges = [||];
    node_order = [||];
    nnodes = 0;
    edge_order = [||];
    nedges = 0;
    prev = -1;
    occurrences = 0;
  }

(* Zero only the slots the window touched. *)
let clear t =
  for i = 0 to t.nnodes - 1 do
    Array.fill t.nodes (width * t.node_order.(i)) width 0
  done;
  for i = 0 to t.nedges - 1 do
    Array.fill t.edges (width * t.edge_order.(i)) width 0
  done;
  t.nnodes <- 0;
  t.nedges <- 0;
  t.prev <- -1;
  t.occurrences <- 0;
  t.entries <- [];
  t.count <- 0

let enable_events ?(log = true) t =
  t.events_enabled <- true;
  t.log_events <- log

let disable_events t = t.events_enabled <- false

let enable_handlers t (events : string list) =
  let set = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace set e ()) events;
  t.handler_events <- Some set

let disable_handlers t = t.handler_events <- None

let handler_instrumented t event =
  match t.handler_events with
  | None -> false
  | Some set -> Hashtbl.mem set event

let record t entry =
  t.entries <- entry :: t.entries;
  t.count <- t.count + 1

(* Cover ids up to [id], moving every touched edge slot to its place in
   the wider table. *)
let grow t id =
  let old = t.cap in
  let cap = max (id + 1) (max 8 (2 * old)) in
  let extend a n fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.names <- extend t.names cap "";
  t.nodes <- extend t.nodes (width * cap) 0;
  t.node_order <- extend t.node_order cap 0;
  let edges = Array.make (width * cap * cap) 0 in
  let edge_order = Array.make (cap * cap) 0 in
  for i = 0 to t.nedges - 1 do
    let slot = t.edge_order.(i) in
    let slot' = (slot / old * cap) + (slot mod old) in
    Array.blit t.edges (width * slot) edges (width * slot') width;
    edge_order.(i) <- slot'
  done;
  t.edges <- edges;
  t.edge_order <- edge_order;
  t.cap <- cap

let first_occurrence t (ev : Event.t) =
  t.names.(ev.Event.id) <- ev.Event.name;
  t.node_order.(t.nnodes) <- ev.Event.id;
  t.nnodes <- t.nnodes + 1

let first_traversal t slot =
  t.edge_order.(t.nedges) <- slot;
  t.nedges <- t.nedges + 1

let bump a i k =
  a.(i) <- a.(i) + 1;
  a.(i + k) <- a.(i + k) + 1

(* The counter offsets within a slot are 1 sync, 2 async, 3 timed.  An
   edge takes Event_graph.build_seq's rule: a depth-0 sync raise came
   from outside any handler, so it cannot have been caused by [prev]. *)
let record_event t (ev : Event.t) ~(mode : Ast.mode) ~time ~depth =
  if t.events_enabled then begin
    let id = ev.Event.id in
    if id >= t.cap then grow t id;
    let n = width * id in
    if t.nodes.(n) = 0 then first_occurrence t ev;
    bump t.nodes n (match mode with Ast.Sync -> 1 | Ast.Async -> 2 | Ast.Timed _ -> 3);
    if t.prev >= 0 then begin
      let slot = (t.prev * t.cap) + id in
      let e = width * slot in
      if t.edges.(e) = 0 then first_traversal t slot;
      bump t.edges e
        (match mode with
         | Ast.Sync when depth > 0 -> 1
         | Ast.Sync | Ast.Async -> 2
         | Ast.Timed _ -> 3)
    end;
    t.prev <- id;
    t.occurrences <- t.occurrences + 1;
    if t.log_events then record t (Event_raised { event = ev.Event.name; mode; time; depth })
  end

let record_handler_begin t ~event ~handler ~time ~depth =
  if handler_instrumented t event then
    record t (Handler_begin { event; handler; time; depth })

let record_handler_end t ~event ~handler ~time ~depth =
  if handler_instrumented t event then
    record t (Handler_end { event; handler; time; depth })

let record_dispatch_begin t ~event ~time ~depth =
  if handler_instrumented t event then record t (Dispatch_begin { event; time; depth })

let record_dispatch_end t ~event ~time ~depth =
  if handler_instrumented t event then record t (Dispatch_end { event; time; depth })

(* Replay the entries into a fresh trace, interning their event names
   in a table of its own. *)
let of_entries entries =
  let t = create () in
  let events = Event.create_table () in
  enable_events t;
  List.iter
    (function
      | Event_raised { event; mode; time; depth } ->
        record_event t (Event.intern events event) ~mode ~time ~depth
      | (Dispatch_begin _ | Dispatch_end _ | Handler_begin _ | Handler_end _) as e ->
        record t e)
    entries;
  disable_events t;
  t

(* --- reading the window ------------------------------------------------- *)

let occurrences t = t.occurrences

let counts a i =
  { total = a.(i); sync = a.(i + 1); async = a.(i + 2); timed = a.(i + 3) }

let iter_nodes t f =
  for i = 0 to t.nnodes - 1 do
    let id = t.node_order.(i) in
    f t.names.(id) (counts t.nodes (width * id))
  done

let iter_edges t f =
  for i = 0 to t.nedges - 1 do
    let slot = t.edge_order.(i) in
    f t.names.(slot / t.cap) t.names.(slot mod t.cap) (counts t.edges (width * slot))
  done

(* --- saving and loading the window -------------------------------------- *)

type window = {
  window_nodes : (string * counts) list;
  window_edges : (string * string * counts) list;
  window_prev : string option;
  window_occurrences : int;
}

let save t =
  let nodes = ref [] and edges = ref [] in
  iter_nodes t (fun name c -> nodes := (name, c) :: !nodes);
  iter_edges t (fun src dst c -> edges := (src, dst, c) :: !edges);
  {
    window_nodes = List.rev !nodes;
    window_edges = List.rev !edges;
    window_prev = (if t.prev < 0 then None else Some t.names.(t.prev));
    window_occurrences = t.occurrences;
  }

(* Names are interned afresh: the runtime the window is loaded into may
   have given them other ids.  Interning an id past the tables grows
   them (moving the edges loaded so far), so an edge's slot is computed
   only once both of its ids are covered. *)
let load t ~intern (w : window) =
  clear t;
  let id name =
    let ev : Event.t = intern name in
    if ev.Event.id >= t.cap then grow t ev.Event.id;
    ev
  in
  let set a i (c : counts) =
    a.(i) <- c.total;
    a.(i + 1) <- c.sync;
    a.(i + 2) <- c.async;
    a.(i + 3) <- c.timed
  in
  List.iter
    (fun (name, c) ->
      let ev = id name in
      first_occurrence t ev;
      set t.nodes (width * ev.Event.id) c)
    w.window_nodes;
  List.iter
    (fun (src, dst, c) ->
      let s = (id src).Event.id in
      let d = (id dst).Event.id in
      let slot = (s * t.cap) + d in
      first_traversal t slot;
      set t.edges (width * slot) c)
    w.window_edges;
  t.prev <- (match w.window_prev with Some name -> (id name).Event.id | None -> -1);
  t.occurrences <- w.window_occurrences

(* --- reading the log ---------------------------------------------------- *)

(* Entries in chronological order. *)
let entries t = List.rev t.entries
let length t = t.count

let event_sequence t =
  List.filter_map
    (function
      | Event_raised { event; mode; _ } -> Some (event, mode)
      | Dispatch_begin _ | Dispatch_end _ | Handler_begin _ | Handler_end _ -> None)
    (entries t)

let pp_entry ppf = function
  | Event_raised { event; mode; time; depth } ->
    Fmt.pf ppf "%6d %s[%d] raise %s %s" time (String.make depth ' ') depth
      (Ast.mode_to_string mode) event
  | Dispatch_begin { event; time; depth } ->
    Fmt.pf ppf "%6d %s[%d] dispatch %s {" time (String.make depth ' ') depth event
  | Dispatch_end { event; time; depth } ->
    Fmt.pf ppf "%6d %s[%d] } %s" time (String.make depth ' ') depth event
  | Handler_begin { event; handler; time; depth } ->
    Fmt.pf ppf "%6d %s[%d] begin %s.%s" time (String.make depth ' ') depth event handler
  | Handler_end { event; handler; time; depth } ->
    Fmt.pf ppf "%6d %s[%d] end   %s.%s" time (String.make depth ' ') depth event handler
