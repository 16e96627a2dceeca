(** A client session: a stream of ops sent towards the broker over a
    simulated {!Podopt_net.Link}, with retry-with-backoff when the
    broker sheds one of its events.

    Ops are sent on a virtual-time schedule: the closed-loop grid
    ([start], then every [interval] units), or — when [schedule] is
    given — an explicit per-op due-time array (the open-loop arrival
    processes of {!Arrivals}).  A shed notification ({!nack})
    schedules a resend after the {!Policy.backoff} delay for that op's
    attempt count; after [max_retries] rejections the op is abandoned,
    exactly once — an abandoned seq is latched, so late nacks for it
    can neither re-enter the backoff machinery nor inflate
    [gave_up]. *)

open Podopt_net

type stats = {
  mutable sent : int;     (** first sends (not counting retries) *)
  mutable retries : int;  (** resends after a shed notification *)
  mutable nacks : int;    (** shed notifications received *)
  mutable gave_up : int;  (** ops abandoned after max_retries *)
}

type t

(** [schedule], when given, must have exactly one due time per op;
    it overrides the [start]/[interval] grid. *)
val create :
  id:string -> link:Link.t -> ops:bytes array -> ?start:int -> ?interval:int ->
  ?schedule:int array -> backoff:Policy.backoff -> unit -> t

val id : t -> string

(** The op payloads, indexed by seq. *)
val ops : t -> bytes array

val start : t -> int
val interval : t -> int

(** All ops sent and no retry pending. *)
val finished : t -> bool

(** Earliest pending work (next first-send or earliest queued retry);
    [None] iff {!finished}.  The load generator's session wheel keys
    on this. *)
val next_due : t -> int option

(** Install (or clear) the wheel re-index hook: called with the due
    time whenever {!nack} schedules a retry, so a session the wheel
    already passed over gets re-queued at its new due. *)
val set_waker : t -> (int -> unit) option -> unit

(** The last scheduled first-send time (the session's send horizon;
    retries may extend past it by the backoff tail). *)
val horizon : t -> int

(** Send every op and due retry whose schedule time is [<= now] over
    the link, which hands each delivered wire to [deliver_event rt]
    (see {!Podopt_net.Link.send}); towards the broker, [rt] is
    {!Broker.front} and [deliver_event] is {!Broker.deliver_event}. *)
val pump :
  t -> now:int -> rt:'rt -> deliver_event:('rt -> delay:int -> bytes -> unit) ->
  unit

(** The broker shed this session's op [seq] at time [now].  A [seq]
    outside [\[0, ops)] (a corrupted header) is ignored. *)
val nack : t -> seq:int -> now:int -> unit

val stats : t -> stats
