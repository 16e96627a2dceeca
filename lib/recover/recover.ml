(* Shard crash-recovery state: checkpoints and redo journals.

   A [snapshot] is the full live state of one broker shard at an epoch
   boundary — virtual clock, named counters, runtime globals, the
   pending/retry/dead queues, the fault-injector stream positions, and
   the inputs of the shard's cumulative adaptive profile.  It is an
   immutable OCaml value that shares no mutable buffer with a live
   shard: [make] copies every [bytes] it is given (global [Value.Bytes],
   queued and dead payloads) and [copy] copies them out again, because
   one snapshot is restored once per kill until the next checkpoint.

   The profile is deferred: a snapshot keeps a copy of the adaptive
   controller's cumulative graph, the live trace window by reference
   (its entries are immutable), the trace and dispatch counts, and the
   binding signature of every bound event.  Only a restore or the
   printed form merges them ([merged]), so a checkpoint costs no trace
   fold, no reduction and no chain search.

   The printed form ([to_string]) is a line format whose bytes must
   stay stable, because the wall-clock benchmark times and sizes it;
   nothing parses it:

     # podopt shard checkpoint
     V 1
     S <id> <shard> <epoch> <kind> <clock> <sessions>   header
     C <name> <value>                                   named counter
     G <name> <hex>                                     global (marshaled Value)
     Q <due> <hex>                                      queued ingress op (wire bytes)
     R <src> <seq> <count>                              retry-table row
     X <hex>                                            dead-lettered op (wire bytes)
     P <kind> <state>                                   fault-stream position (int64)
     F <line>                                           embedded profile store line

   [id] is the CRC-32 of the body (every line after the id field).

   The redo [journal] is the coordinator-side log of everything a shard
   was fed since its last checkpoint: each admitted op ([Offer]) and
   each epoch drain ([Drain]), in admission order.  Replaying the
   journal over a restored checkpoint re-derives the shard's pre-crash
   state deterministically.  The journal is bounded by a high-water
   mark: ops are never dropped (that would lose work), but once the
   mark is passed the supervisor takes an early checkpoint at the next
   epoch boundary, which empties the journal. *)

module Packet = Podopt_net.Packet
module Store = Podopt_store.Store
module Crc32 = Podopt_crypto.Crc32
module Value = Podopt_hir.Value
module Trace = Podopt_eventsys.Trace
module Event_graph = Podopt_profile.Event_graph
module Reduce = Podopt_profile.Reduce
module Chains = Podopt_profile.Chains

type profile = {
  graph : Event_graph.t;       (* copy of the cumulative graph *)
  window : Trace.entry list;   (* live trace window, newest first, shared *)
  trace_entries : int;         (* entries represented by graph + window *)
  dispatched : int;            (* ops the shard had served *)
  threshold : int;             (* the controller's chain threshold *)
  signatures : (string * string list) list;  (* bound events, sorted *)
}

type snapshot = {
  shard : int;
  epoch : int;                  (* epoch the checkpoint was taken at *)
  kind : string;                (* workload kind, e.g. "seccomm" *)
  clock : int;                  (* shard virtual clock *)
  sessions : int;               (* sessions routed to the shard so far *)
  counters : (string * int) list;        (* sorted by name *)
  globals : (string * Value.t) list;     (* sorted by name *)
  queue : (int * Packet.t) list;         (* (due, op) in pop order *)
  retries : ((string * int) * int) list; (* (src, seq) -> attempts, sorted *)
  dead : Packet.t list;                  (* dead-letter queue, oldest first *)
  streams : (string * int64) list;       (* fault-stream positions, sorted *)
  profile : profile option;              (* optimizing shards only *)
}

(* --- copying ------------------------------------------------------------ *)

let rec copy_value = function
  | Value.Bytes b -> Value.Bytes (Bytes.copy b)
  | Value.Pair (a, b) -> Value.Pair (copy_value a, copy_value b)
  | Value.List vs -> Value.List (List.map copy_value vs)
  | (Value.Unit | Value.Bool _ | Value.Int _ | Value.Float _ | Value.Str _) as v -> v

let copy_packet (p : Packet.t) = { p with Packet.payload = Bytes.copy p.Packet.payload }

let copy (s : snapshot) =
  {
    s with
    globals = List.map (fun (name, v) -> (name, copy_value v)) s.globals;
    queue = List.map (fun (due, p) -> (due, copy_packet p)) s.queue;
    dead = List.map copy_packet s.dead;
  }

(* Sort the order-insensitive fields into canonical order, so equal
   states print equal bytes no matter what order the captor enumerated
   them in, and copy every buffer. *)
let make ~shard ~epoch ~kind ~clock ~sessions ~counters ~globals ~queue ~retries
    ~dead ~streams ~profile () =
  copy
    {
      shard;
      epoch;
      kind;
      clock;
      sessions;
      counters = List.sort compare counters;
      globals = List.sort (fun (a, _) (b, _) -> compare a b) globals;
      queue;
      retries = List.sort compare retries;
      dead;
      streams = List.sort compare streams;
      profile;
    }

(* --- the deferred profile ----------------------------------------------- *)

(* Everything the profile saw, as one fresh graph: the window folded
   on top of the cumulative graph.  With it, each node's binding
   signature ([[]] for an unbound event), nodes sorted.  [None] when
   nothing was observed. *)
let merged (p : profile) =
  let window = Trace.create () in
  window.Trace.entries <- p.window;
  window.Trace.count <- List.length p.window;
  let graph = Event_graph.create () in
  Event_graph.merge_into ~into:graph p.graph;
  Event_graph.merge_into ~into:graph (Event_graph.of_trace window);
  if Event_graph.node_count graph = 0 then None
  else
    let signatures =
      Event_graph.nodes graph
      |> List.map (fun (n : Event_graph.node) -> n.Event_graph.name)
      |> List.sort compare
      |> List.map (fun ev ->
             (ev, Option.value ~default:[] (List.assoc_opt ev p.signatures)))
    in
    Some (graph, signatures)

let profile_entry ~kind ~shard (p : profile) =
  Option.map
    (fun (graph, handlers) ->
      let chains = Chains.find (Reduce.reduce graph ~threshold:p.threshold) in
      Store.make_entry ~kind ~shard ~dispatched:p.dispatched
        ~trace_entries:p.trace_entries ~graph ~chains ~handlers ())
    (merged p)

(* --- the printed form --------------------------------------------------- *)

let add_hex buf s = Buffer.add_string buf (if s = "" then "-" else Value.to_hex s)

let add_packet buf pkt = add_hex buf (Bytes.unsafe_to_string (Packet.encode pkt))

(* The body: the header minus the id field, then every record line, one
   '\n' between lines. *)
let body (s : snapshot) =
  let buf = Buffer.create 4096 in
  let line fmt =
    Buffer.add_char buf '\n';
    Printf.bprintf buf fmt
  in
  Printf.bprintf buf "S %d %d %s %d %d" s.shard s.epoch s.kind s.clock s.sessions;
  List.iter (fun (name, v) -> line "C %s %d" name v) s.counters;
  List.iter
    (fun (name, v) ->
      line "G %s " name;
      add_hex buf (Value.marshal [ v ]))
    s.globals;
  List.iter
    (fun (due, pkt) ->
      line "Q %d " due;
      add_packet buf pkt)
    s.queue;
  List.iter (fun ((src, seq), count) -> line "R %s %d %d" src seq count) s.retries;
  List.iter
    (fun pkt ->
      line "X ";
      add_packet buf pkt)
    s.dead;
  List.iter (fun (kind, state) -> line "P %s %Ld" kind state) s.streams;
  Option.iter
    (fun e ->
      String.split_on_char '\n' (Store.to_string [ e ])
      |> List.iter (fun l -> if l <> "" then line "F %s" l))
    (Option.bind s.profile (profile_entry ~kind:s.kind ~shard:s.shard));
  Buffer.contents buf

let to_string (s : snapshot) : string =
  let body = body s in
  Printf.sprintf "# podopt shard checkpoint\nV 1\nS %08x%s\n" (Crc32.of_string body)
    (String.sub body 1 (String.length body - 1))

(* --- the redo journal --------------------------------------------------- *)

type op =
  | Offer of int * Packet.t  (* op admitted to the shard at front time [now] *)
  | Drain of int * int       (* epoch drain at time [now] with batch width *)

type journal = {
  limit : int;
  mutable rev_entries : op list;
  mutable count : int;
}

let journal ~limit =
  if limit <= 0 then invalid_arg "Recover.journal: limit <= 0";
  { limit; rev_entries = []; count = 0 }

let record (j : journal) (entry : op) =
  j.rev_entries <- entry :: j.rev_entries;
  j.count <- j.count + 1

let entries (j : journal) = List.rev j.rev_entries
let journal_length (j : journal) = j.count

(* Past the high-water mark: the supervisor should checkpoint (and
   thereby clear the journal) at the next epoch boundary. *)
let full (j : journal) = j.count >= j.limit

let clear (j : journal) =
  j.rev_entries <- [];
  j.count <- 0
