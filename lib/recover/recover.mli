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
    recovery path.  An optimizing shard's adaptive controller travels
    as {!Podopt_optimize.Adaptive.save} copies it: the cumulative
    graph, the live trace window's counters and the optimization plan
    the shard had installed, so no trace is kept or folded, and a
    restore brings the controller back as it was instead of re-planning
    from a graph that, recorded while super-handlers ran, no longer
    shows the chains they subsume.  {!to_string} prints the snapshot,
    with the store entry the shard builds for it, in a byte-stable line
    format for measuring.  Its hex and CRC-32 are
    {!Podopt_codec.Lines}'s, and the plan is not printed. *)

module Packet = Podopt_net.Packet
module Value = Podopt_hir.Value

(** The optimizer state a restore loads back, kept as is so that a
    capture runs no reduction and no chain search. *)
type profile = {
  adaptive : Podopt_optimize.Adaptive.saved;
      (** the controller's cumulative graph, live window and installed
          plan *)
  breaker : Podopt_optimize.Breaker.t;
      (** a {!Podopt_optimize.Breaker.copy} of the shard's breaker; a
          restore installs a copy of it, so nothing mutates this one *)
}

type snapshot = {
  shard : int;
  epoch : int;                  (** epoch the checkpoint was taken at *)
  kind : string;                (** workload kind, e.g. ["seccomm"] *)
  clock : int;                  (** shard virtual clock *)
  sessions : int;
      (** sessions routed to the shard so far; printed only, since the
          live count survives kills and a restore keeps it *)
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

(** The printed form: a [V 1] line-format document whose [S] line
    carries the CRC-32 (hex) of the body, with the shard's profile
    embedded as [F] lines: [store] is that profile as a printed store
    ([""] for none).  Hex and digest are {!Podopt_codec.Lines}'s.
    Nothing reads it back. *)
val to_string : snapshot -> store:string -> string

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
