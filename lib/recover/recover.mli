(** Shard crash-recovery state: checkpoints and redo journals.

    A {!snapshot} captures the full live state of one broker shard at
    an epoch boundary; the {!journal} is the coordinator-side redo log
    of everything the shard was fed since its last checkpoint.
    Restoring the snapshot and replaying the journal re-derives the
    shard's pre-crash state deterministically — the supervisor's whole
    recovery story (see doc/RECOVERY.md).

    A snapshot is an immutable value that never shares a mutable buffer
    with a live shard ({!make} copies buffers in, {!copy} copies them
    out), so the broker keeps it as is: nothing is serialized on the
    recovery path.  {!to_string} prints it in a byte-stable line
    format, for measuring. *)

module Packet = Podopt_net.Packet
module Value = Podopt_hir.Value

(** The deferred adaptive profile: the inputs the shard's cumulative
    profile is built from, kept instead of the profile itself so that a
    capture folds no trace.  {!merged} builds it. *)
type profile = {
  graph : Podopt_profile.Event_graph.t;
      (** a copy of the controller's cumulative graph *)
  window : Podopt_eventsys.Trace.entry list;
      (** the live trace window, newest first — shared with the live
          trace, whose entries are immutable *)
  trace_entries : int;  (** trace entries represented by graph + window *)
  dispatched : int;     (** ops the shard had served *)
  threshold : int;      (** the controller's chain threshold *)
  signatures : (string * string list) list;
      (** ordered handler names of every bound event, sorted by event *)
}

type snapshot = {
  shard : int;
  epoch : int;                  (** epoch the checkpoint was taken at *)
  kind : string;                (** workload kind, e.g. ["seccomm"] *)
  clock : int;                  (** shard virtual clock *)
  sessions : int;               (** sessions routed to the shard so far *)
  counters : (string * int) list;        (** named counters, sorted *)
  globals : (string * Value.t) list;     (** runtime globals, sorted *)
  queue : (int * Packet.t) list;         (** (due, op) in pop order *)
  retries : ((string * int) * int) list; (** (src, seq) -> attempts, sorted *)
  dead : Packet.t list;                  (** dead letters, oldest first *)
  streams : (string * int64) list;       (** fault-stream positions, sorted *)
  profile : profile option;              (** optimizing shards only *)
}

(** Build a snapshot, sorting the order-insensitive fields into
    canonical order and copying every [bytes] in [globals], [queue]
    and [dead]. *)
val make :
  shard:int -> epoch:int -> kind:string -> clock:int -> sessions:int ->
  counters:(string * int) list -> globals:(string * Value.t) list ->
  queue:(int * Packet.t) list -> retries:((string * int) * int) list ->
  dead:Packet.t list -> streams:(string * int64) list ->
  profile:profile option -> unit -> snapshot

(** The same snapshot with fresh copies of every [bytes] it holds — what
    a restore loads, so the live shard can mutate them. *)
val copy : snapshot -> snapshot

(** The profile as one fresh graph — the cumulative graph plus the
    window, merged — with each node's binding signature ([[]] for an
    unbound event), nodes sorted.  [None] when nothing was observed. *)
val merged :
  profile ->
  (Podopt_profile.Event_graph.t * (string * string list) list) option

(** The profile as a store entry (chains at the profile's threshold);
    [None] when nothing was observed. *)
val profile_entry :
  kind:string -> shard:int -> profile -> Podopt_store.Store.entry option

(** The printed form: a [V 1] line-format document whose [S] line
    carries the CRC-32 (hex) of the body, with the profile as embedded
    store-entry lines.  Nothing reads it back. *)
val to_string : snapshot -> string

(** {1 The redo journal} *)

type op =
  | Offer of int * Packet.t
      (** an op admitted to the shard's ingress at front time [now] *)
  | Drain of int * int
      (** an epoch drain at time [now] with the drain's batch width *)

type journal

(** An empty journal with high-water mark [limit] (> 0).  The mark is a
    checkpoint trigger, not a hard cap: entries are never dropped (that
    would lose work) — once {!full}, the supervisor checkpoints at the
    next epoch boundary, which {!clear}s the journal. *)
val journal : limit:int -> journal

val record : journal -> op -> unit

(** Entries in admission order. *)
val entries : journal -> op list

val journal_length : journal -> int

(** At or past the high-water mark? *)
val full : journal -> bool

val clear : journal -> unit
