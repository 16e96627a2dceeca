(** Bounded per-shard ingress queue.

    Arriving events wait here until the shard drains them in batches.
    Ordering rides on {!Podopt_eventsys.Equeue}: items are keyed by
    arrival time and, within one arrival time, preserve offer order —
    the same (due, sequence) discipline the runtime's pending queue
    uses, so a batch replays events exactly as they arrived.

    The queue is bounded: offers beyond [limit] shed an event according
    to the {!Policy.shed} policy instead of growing the queue. *)

open Podopt_net

type stats = {
  mutable offered : int;     (** every packet presented to the queue *)
  mutable accepted : int;    (** packets that entered the queue (an
                                 accepted packet can still be evicted
                                 later under [Drop_oldest]) *)
  mutable shed : int;        (** arrivals rejected at the door — never
                                 entered the queue.  Invariant:
                                 [offered = accepted + shed]. *)
  mutable displaced : int;   (** previously accepted packets evicted by
                                 a later [Drop_oldest] arrival (counted
                                 here, not in [shed], so the partition
                                 above holds) *)
  mutable high_water : int;  (** maximum queue length observed *)
  mutable requeued : int;    (** re-entries through {!requeue} *)
  mutable requeue_overflow : int;
      (** requeues that landed while the queue was already at or past
          [limit] — the admission-free re-entry growing a "bounded"
          queue beyond its bound (a retry-storm signal) *)
}

type t

val create : limit:int -> policy:Policy.shed -> t

type outcome =
  | Accepted
  | Shed of Packet.t
      (** the shed packet: the arrival itself under [Drop_newest], the
          evicted queue head under [Drop_oldest] *)

(** Offer a packet that arrived at virtual time [now]. *)
val offer : t -> now:int -> Packet.t -> outcome

(** Re-enqueue a packet the shard already accepted once (failure retry
    or dead-letter re-drain).  Skips the offered/accepted/shed counters
    and the limit check — its admission was already paid for, and a
    retry must never be shed — but counts into [stats.requeued], and
    into [stats.requeue_overflow] when the queue was already full.
    Pass the shard clock as [due]: it is a different timebase from the
    broker time fresh arrivals carry.  Enforced: the shard clock is
    monotone, so [due] below any earlier requeue's due (or, after a
    {!reload}, below its [floor]) means the caller mixed in another
    timebase — raises [Invalid_argument] instead of silently
    reordering the drain. *)
val requeue : t -> due:int -> Packet.t -> unit

(** Remove and return up to [max] packets in arrival order. *)
val drain : t -> max:int -> Packet.t list

(** Like {!drain}, also returning each packet's queue entry time (its
    arrival time for offered packets, the requeue [due] for retries) —
    what the shard's queue-wait histogram is measured from. *)
val drain_timed : t -> max:int -> (int * Packet.t) list

val length : t -> int
val stats : t -> stats
val reset_stats : t -> unit

(** {1 Checkpoint support} *)

(** Non-destructive snapshot of the queue contents in pop order. *)
val to_list : t -> (int * Packet.t) list

(** Re-enter a {!to_list} snapshot into a (fresh) queue, preserving pop
    order, and set the {!requeue} floor to [floor], the restored shard
    clock.  Bypasses all accounting — restored stats travel separately
    in the checkpoint. *)
val reload : t -> floor:int -> (int * Packet.t) list -> unit

(** Overwrite the counters from restored checkpoint values. *)
val set_stats :
  t -> offered:int -> accepted:int -> shed:int -> displaced:int ->
  high_water:int -> requeued:int -> requeue_overflow:int -> unit
