(* Bounded ingress queue on top of Equeue: due = arrival time, and the
   heap's (due, seq) order preserves offer order within a tick — the
   ordering guarantee the shard's batch drain relies on. *)

open Podopt_eventsys
open Podopt_net

type stats = {
  mutable offered : int;
  mutable accepted : int;
  mutable shed : int;
  mutable displaced : int;
  mutable high_water : int;
  mutable requeued : int;
  mutable requeue_overflow : int;
}

type t = {
  limit : int;
  policy : Policy.shed;
  q : Packet.t Equeue.t;
  (* highest due any [requeue] has used so far: requeues must carry the
     shard clock, and the shard clock is monotone, so a due below this
     floor means a caller handed us the wrong timebase *)
  mutable retry_floor : int;
  stats : stats;
}

let create ~limit ~policy =
  if limit <= 0 then invalid_arg "Ingress.create: limit <= 0";
  {
    limit;
    policy;
    q = Equeue.create ();
    retry_floor = 0;
    stats =
      {
        offered = 0;
        accepted = 0;
        shed = 0;
        displaced = 0;
        high_water = 0;
        requeued = 0;
        requeue_overflow = 0;
      };
  }

type outcome = Accepted | Shed of Packet.t

let length t = Equeue.length t.q

let accept t ~now pkt =
  Equeue.push t.q ~due:now pkt;
  t.stats.accepted <- t.stats.accepted + 1;
  if Equeue.length t.q > t.stats.high_water then
    t.stats.high_water <- Equeue.length t.q

(* Accounting partitions by the arrival's fate: every offer lands in
   exactly one of [accepted] or [shed], so [offered = accepted + shed]
   always holds.  A [Drop_oldest] eviction is a *previously accepted*
   packet losing its seat to the arrival — counted in [displaced], not
   [shed] (the old code bumped shed AND accepted for one offer, which
   broke the partition the report's shed%% assumes). *)
let offer t ~now pkt =
  t.stats.offered <- t.stats.offered + 1;
  if Equeue.length t.q < t.limit then begin
    accept t ~now pkt;
    Accepted
  end
  else
    match t.policy with
    | Policy.Drop_newest ->
      t.stats.shed <- t.stats.shed + 1;
      Shed pkt
    | Policy.Drop_oldest ->
      (match Equeue.pop t.q with
       | Some (_, victim) ->
         accept t ~now pkt;
         t.stats.displaced <- t.stats.displaced + 1;
         Shed victim
       | None ->
         (* limit >= 1 makes this unreachable *)
         t.stats.shed <- t.stats.shed + 1;
         Shed pkt)

(* Re-entry for a packet the shard already accepted once (failure
   retry, dead-letter re-drain): no offered/accepted/shed accounting,
   and no limit check — the packet's admission was already paid for,
   and shedding a retry would silently drop an accepted op.  The cost
   of that invariant is that a retry storm can push the queue past
   [limit]; [requeued] / [requeue_overflow] make the excursion visible
   instead of letting it hide inside high_water.  [due] must be the
   SHARD clock (a busy shard's clock runs ahead of broker time, the due
   of fresh arrivals, so its retries sort behind them; a shard with
   little traffic can lag broker time) — enforced here, not just
   documented: the shard clock is monotone, so a [due] below a previous
   requeue's due means a caller mixed in another timebase (e.g. broker
   time), and the drain order would silently flip once the clocks
   diverge.  Fail loudly instead.  (Audit: the only callers are
   Shard.note_failure and Shard.redrain_dead, both passing
   [Runtime.now shard.rt].) *)
let requeue t ~due pkt =
  if due < t.retry_floor then
    invalid_arg
      (Printf.sprintf
         "Ingress.requeue: due %d below the requeue high water %d (pass the \
          monotone shard clock, not broker time)"
         due t.retry_floor);
  t.retry_floor <- due;
  Equeue.push t.q ~due pkt;
  t.stats.requeued <- t.stats.requeued + 1;
  if Equeue.length t.q > t.limit then
    t.stats.requeue_overflow <- t.stats.requeue_overflow + 1;
  if Equeue.length t.q > t.stats.high_water then
    t.stats.high_water <- Equeue.length t.q

let drain_timed t ~max =
  let rec go n acc =
    if n >= max then List.rev acc
    else
      match Equeue.pop t.q with
      | None -> List.rev acc
      | Some (due, pkt) -> go (n + 1) ((due, pkt) :: acc)
  in
  go 0 []

let drain t ~max = List.map snd (drain_timed t ~max)

(* Checkpoint support: a non-destructive (due, packet) snapshot in pop
   order, and the raw re-entry that rebuilds a queue from one.  The
   reload bypasses every counter — the restored stats arrive separately
   from the checkpoint, and double-counting the reloaded ops would skew
   them. *)
let to_list t = Equeue.to_list t.q

let reload t ~floor items =
  List.iter (fun (due, pkt) -> Equeue.push t.q ~due pkt) items;
  (* [floor] is the restored shard clock: every requeue before the
     checkpoint carried a clock at or below it, every later one carries
     a clock at or above it.  The queued dues bound nothing — fresh
     arrivals carry broker time, which can run ahead of the shard *)
  t.retry_floor <- floor

let stats t = t.stats

let set_stats t ~offered ~accepted ~shed ~displaced ~high_water ~requeued
    ~requeue_overflow =
  t.stats.offered <- offered;
  t.stats.accepted <- accepted;
  t.stats.shed <- shed;
  t.stats.displaced <- displaced;
  t.stats.high_water <- high_water;
  t.stats.requeued <- requeued;
  t.stats.requeue_overflow <- requeue_overflow

let reset_stats t =
  t.stats.offered <- 0;
  t.stats.accepted <- 0;
  t.stats.shed <- 0;
  t.stats.displaced <- 0;
  t.stats.requeued <- 0;
  t.stats.requeue_overflow <- 0;
  t.stats.high_water <- Equeue.length t.q
