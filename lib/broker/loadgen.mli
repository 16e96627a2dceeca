(** Load generator: replays an application workload as many concurrent
    client sessions and drives the broker simulation to completion.

    Every session is built by {!session}, which seeds its link and
    open-loop schedule from the broker seed plus the session index, so
    a whole run — arrival times, link delays, routing, shedding,
    retries, and every stats counter — is reproducible bit-for-bit, and
    the replayer rebuilds a recorded session from its index alone. *)

type profile = {
  sessions : int;
  ops : int;        (** ops per session *)
  interval : int;   (** virtual units between a session's ops *)
  spread : int;     (** stagger between consecutive sessions' starts *)
  latency : int;    (** link latency *)
  jitter : int;     (** link jitter bound (0 = none) *)
}

val default_profile : profile
(** 8 sessions, 8 ops, interval 200, spread 37, latency 50, no jitter. *)

(** Latency percentile summaries from the merged per-shard histograms:
    queue wait in front-clock units (arrival to drain, fresh arrivals
    only), service time in shard-clock units per op, split by dispatch
    path (optimized / generic), plus the drained-batch depth
    distribution.  All-zero when nothing was recorded. *)
type latency = {
  queue_wait : Podopt_obs.Hist.dist;
  service_opt : Podopt_obs.Hist.dist;
  service_gen : Podopt_obs.Hist.dist;
  batch_depth : Podopt_obs.Hist.dist;
}

type summary = {
  sent : int;
  retries : int;
  nacks : int;
  gave_up : int;
  routed : int;
  shed : int;  (** arrivals rejected at the door (Drop_newest) *)
  displaced : int;
      (** accepted arrivals that evicted the queue head (Drop_oldest);
          every offer lands in exactly one of accepted/shed, and
          displacements count the eviction side effects *)
  dispatched : int;
  batches : int;
  optimized : int;
  generic : int;
  fallbacks : int;
  failures : int;       (** handler failures isolated across shards *)
  requeued : int;       (** failed ops put back for retry *)
  quarantined : int;    (** ops moved to dead-letter queues *)
  breaker_trips : int;  (** optimizer circuit-breaker trips *)
  link_dropped : int;   (** packets the fault plan dropped at the front *)
  decode_failures : int;(** wire buffers that failed to decode *)
  kills : int;          (** injected shard kills *)
  recoveries : int;     (** completed checkpoint restores *)
  redelivered : int;    (** journal ops replayed by recoveries *)
  checkpoints : int;    (** checkpoints captured across shards *)
  ramp_optimized : int;
      (** optimized dispatches in the first non-empty batch of new
          traffic after each recovery, summed — the post-recovery warm
          ramp (a warm restart serves it optimized) *)
  ramp_generic : int;
      (** generic dispatches in those same post-recovery batches *)
  first_epoch_optimized : int;
      (** optimized dispatches in each shard's first non-empty batch,
          summed — the warm-start ramp observable (a cold optimizing
          broker serves its first batch generic; a warm-started one
          serves it optimized) *)
  first_epoch_generic : int;
      (** generic dispatches in those same first batches *)
  latency : latency;    (** merged-across-shards latency percentiles *)
  busy : int;      (** total handler-time units across shards *)
  makespan : int;  (** the busiest shard's handler time — the parallel
                       completion-time proxy *)
  elapsed : int;   (** front-clock virtual time consumed by the run *)
  truncated : bool;
      (** the run hit [max_ticks] before every session finished and the
          broker drained — every counter above describes an unfinished
          run *)
}

(** Fraction of dispatches that took a super-handler path, in percent
    (0 when there were none — an idle run is not "fully optimized"). *)
val opt_share : optimized:int -> generic:int -> float

(** {!opt_share} of a run's totals. *)
val opt_pct : summary -> float

(** [session broker profile ~index ~id ~ops ~start ~interval] builds
    one session and registers its nack callback with the broker
    (re-registering an [id] replaces the previous phase's callback —
    see {!Broker.register}).  Its link has the profile's latency and
    jitter; with an open-loop [arrivals] spec on the broker config, an
    {!Arrivals.schedule} of [ops] replaces the closed-loop grid from
    [start] every [interval] units.  Both are seeded from the broker
    seed plus [index + 1]. *)
val session :
  Broker.t -> profile -> index:int -> id:string -> ops:bytes array ->
  start:int -> interval:int -> Session.t

(** The sessions of a profile: session [i] is {!session} with index
    [i], id ["s%03d"], the workload's payloads, and a start staggered
    [i * spread] after the broker's clock.  Ids are stable across
    phases, so a warm-up reaches exactly the shards the steady phase
    will use. *)
val make_sessions : Broker.t -> profile -> Session.t list

(** Drive sessions + broker until every session finished and the broker
    is idle; returns the run's summary.  Sessions are indexed on a
    due-time wheel, so a tick costs O(sessions due now) and
    10^4–10^5-session open-loop runs stay cheap.  [max_ticks] bounds
    the simulation as a safety net; the default is computed from the
    sessions' send horizon and op count (see [--max-ticks] on serve),
    so hitting it means the run is wedged, not merely big — the
    summary's [truncated] flag reports it. *)
val run : ?max_ticks:int -> Broker.t -> Session.t list -> summary

(** The measured protocol: run a warm-up phase of [warmup_ops] ops per
    session (letting each shard's adaptive optimizer install its
    super-handlers), force the analysis on any shard the warm-up left
    generic, reset all measurements, then run and measure the steady
    phase.  [make phase p] builds a phase's sessions from its profile
    [p] (the warm-up's has [warmup_ops] ops): [phase] is ["w"] for the
    warm-up and ["m"] for the measured phase, the phase tags of a
    replay log, and the default is [make_sessions broker p].
    [max_ticks] overrides the measured phase's computed tick budget
    (the warm-up always uses the computed default). *)
val steady :
  ?warmup_ops:int -> ?max_ticks:int ->
  ?make:(string -> profile -> Session.t list) -> Broker.t -> profile -> summary
