(** One broker shard: a bounded ingress queue in front of a private
    application runtime with its own registry and on-line adaptive
    optimizer.

    Shards never share state, so N shards dispatch N batches of events
    with no locking between them; the broker routes every packet of a
    session to the same shard (see {!Shard_map}), which is what makes
    the isolation safe.

    {2 Fault tolerance}

    The shard runtime runs with
    {!Podopt_eventsys.Runtime.t.isolate_failures} on: an exception
    escaping handler code is counted, not propagated, so one hostile
    handler (or an injected crash from a {!Podopt_faults.Plan}) cannot
    abort a drain loop.  A failed op is retried — requeued behind fresh
    arrivals — until it fails [max_failures] consecutive times, at which
    point it is quarantined into a bounded per-shard dead-letter queue
    (inspect with {!dead_letters}, put back with {!redrain_dead}; when
    full, the oldest dead packet is dropped).  A success resets the op's
    consecutive-failure count.

    Optimizing shards also carry a {!Podopt_optimize.Breaker}: when the
    optimized path's fault rate (guard fallbacks + handler failures)
    trips it, the shard uninstalls its super-handlers and serves generic
    dispatch for the cool-down, after which the adaptive controller may
    re-optimize from the live trace window. *)

open Podopt_eventsys
open Podopt_net

type stats = {
  mutable batches : int;      (** non-empty batch drains *)
  mutable dispatched : int;   (** ops replayed successfully *)
  mutable failures : int;     (** op attempts ending in a handler failure *)
  mutable requeued : int;     (** failed ops put back for retry *)
  mutable quarantined : int;  (** ops moved to the dead-letter queue *)
  mutable dead_dropped : int; (** dead ops evicted by the queue bound *)
  mutable first_epoch_optimized : int;
      (** optimized dispatches in the first non-empty batch since the
          last reset — the warm-start ramp observable *)
  mutable first_epoch_generic : int;
      (** generic dispatches in that same first batch *)
  mutable first_epoch_seen : bool;
}

(** Crash-recovery accounting.  Lives outside the state a kill wipes
    and a checkpoint captures: it describes the recovery machinery
    itself, so resurrecting it from a checkpoint would erase the very
    kills it counts. *)
type recov = {
  mutable kills : int;          (** injected crashes on this shard *)
  mutable recoveries : int;     (** completed checkpoint restores *)
  mutable redelivered : int;    (** journal ops replayed by recoveries *)
  mutable checkpoints : int;    (** checkpoints captured *)
  mutable ramp_pending : bool;  (** capture the next non-empty batch? *)
  mutable ramp_optimized : int;
      (** optimized dispatches in the first non-empty batch of new
          traffic after each recovery (accumulated across recoveries) *)
  mutable ramp_generic : int;
      (** generic dispatches in those same first batches *)
}

type t = {
  id : int;
  kind : Workload.kind;
  mutable inst : Workload.instance;
      (** the workload instance ops dispatch into (owns [rt]) *)
  mutable rt : Runtime.t;       (** = [Workload.runtime inst], cached —
                                    the core a {!kill} wipes... *)
  mutable ingress : Ingress.t;
  mutable adaptive : Podopt_optimize.Adaptive.t option;
      (** [None] = generic shard *)
  mutable breaker : Podopt_optimize.Breaker.t option;
      (** optimizing shards only *)
  mutable metrics : Podopt_obs.Metrics.t;
      (** per-shard deterministic metrics: queue wait, per-op service
          cost by dispatch path, batch depth, and one dispatch-time
          histogram per event kind *)
  warm_installed : int;
      (** super-handlers installed from a stored profile before any
          packet arrived (see {!create}'s [warm]) *)
  warm_stale : int;
      (** stored-profile events the warm start rejected as stale *)
  stats : stats;
  recov : recov;
  mutable sessions : int;
      (** distinct sessions routed here: the broker counts a session on
          its first packet, when it enters the broker's session table.
          Like that table, the count survives kills; a reset zeroes
          both. *)
  mutable faults : Podopt_faults.Plan.t option;
  max_failures : int;  (** consecutive failures before quarantine *)
  dead_limit : int;    (** dead-letter queue bound *)
  retry : (string * int, int) Hashtbl.t;
      (** (src, seq) -> consecutive failures so far *)
  dead : Packet.t Queue.t;
  queue_limit : int;   (** ...and the knobs a restart rebuilds it with *)
  shed_policy : Policy.shed;
  optimize : bool;
  compile : bool;
  breaker_policy : Podopt_optimize.Breaker.policy option;
  mutable tamper : (Packet.t -> bytes) option;
      (** rewrite an op's payload just before dispatch (see
          {!set_tamper}) *)
  mutable on_delivery :
    (shard:int -> src:string -> seq:int -> ok:bool -> payload:bytes -> unit)
      option;  (** per-dispatch observer (see {!set_on_delivery}) *)
}

(** [optimize] enables continuous tracing plus the adaptive controller
    (and a circuit breaker — pass [?breaker] to override its policy); a
    generic shard pays no tracing and never installs super-handlers.
    [compile] (default true) selects compiled vs interpreted
    super-handlers ({!Podopt_optimize.Adaptive.policy}).  [?faults]
    installs an injector derived with salt [id + 1] (the broker front
    owns salt 0).  [?warm] — a merged profile graph plus the stored
    binding signatures (see {!Podopt_store.Store.aggregate}) — makes an
    optimizing shard install super-handlers before any packet arrives:
    events whose stored signature differs from the live bindings are
    dropped as stale, and everything installed still sits behind the
    binding-version guards.  The warm start runs on the caller (the
    coordinator), so its outcome is identical at any domain count. *)
val create :
  ?faults:Podopt_faults.Plan.spec -> ?max_failures:int -> ?dead_limit:int ->
  ?breaker:Podopt_optimize.Breaker.policy -> ?compile:bool ->
  ?warm:Podopt_profile.Event_graph.t * (string * string list) list ->
  id:int -> kind:Workload.kind -> optimize:bool -> queue_limit:int ->
  policy:Policy.shed -> unit -> t

(** Replace (or with [None] / a disabled spec, remove) the shard's fault
    injector; streams restart from the spec's seed. *)
val set_faults : t -> Podopt_faults.Plan.spec option -> unit

val offer : t -> now:int -> Packet.t -> Ingress.outcome

(** Drain up to [batch] ingress packets and dispatch each behind the
    isolation boundary; failed ops are retried or quarantined as
    described above.  [now] is the front (broker) clock at the start of
    the drain epoch: each fresh arrival records [now - arrival] into the
    shard's queue-wait histogram (retries are excluded — their due is
    the shard clock, a different timebase).  Feeds the batch's (events,
    faults) sample to the breaker when super-handlers are installed, and
    ticks the adaptive controller once per non-empty batch unless the
    breaker is open.  Returns how many ops were drained (including
    failed attempts). *)
val drain_batch : t -> now:int -> batch:int -> int

(** Run the adaptive analysis now if nothing is installed yet (used
    after a warm-up phase); true when super-handlers were installed. *)
val force_reoptimize : t -> bool

(** Handler-time units consumed by this shard's runtime. *)
val busy : t -> int

val optimized_dispatches : t -> int
val generic_dispatches : t -> int
val fallbacks : t -> int

(** Warm-start outcome of {!create}'s [warm] (0 without one). *)
val warm_installed : t -> int

val warm_stale : t -> int

(** Dispatch-path split of the first non-empty batch since the last
    reset (see [stats]). *)
val first_epoch_optimized : t -> int

val first_epoch_generic : t -> int

(** The shard's cumulative profile as one store entry: the adaptive
    controller's accumulated event graph, hot chains at its threshold,
    and the live binding signatures.  [None] for generic shards or when
    nothing was observed. *)
val profile_entry : t -> Podopt_store.Store.entry option

(** Handler failures isolated at this shard's dispatch boundary
    (injected crashes included).  Fatal process conditions
    ([Out_of_memory], [Stack_overflow], [Assert_failure]) are never
    isolated here — they propagate out of {!drain_batch}. *)
val handler_failures : t -> int

(** The shard's metrics (see the [metrics] field). *)
val metrics : t -> Podopt_obs.Metrics.t

(** Queue-wait histogram: front-clock units from arrival to drain,
    fresh arrivals only. *)
val queue_wait : t -> Podopt_obs.Hist.t

(** Per-op service-time distributions on the shard clock, split by
    dispatch path (an op that took any optimized dispatch counts as
    optimized).
    Exact (full-resolution) histograms: the deterministic cost model
    lands per-op costs on a handful of exact values that log buckets
    would collapse into degenerate percentiles. *)
val service_opt : t -> Podopt_obs.Exact.t
val service_gen : t -> Podopt_obs.Exact.t

(** Exact distribution of drained-batch sizes. *)
val batch_depth : t -> Podopt_obs.Exact.t

(** The dead-letter queue, oldest first (a copy; the queue is not
    touched). *)
val dead_letters : t -> Packet.t list

(** Move every dead-letter packet back into the ingress queue with a
    fresh consecutive-failure count; returns how many.  Typical use:
    clear the fault plan, then re-drain. *)
val redrain_dead : t -> int

(** The live fault injector, if the shard has one — the record layer
    attaches its draw logger here. *)
val fault_injector : t -> Podopt_faults.Plan.t option

(** Install (or remove) a payload rewriter applied to every op just
    before dispatch — the differential oracle's deliberately-broken-
    handler fixture.  Purely a test/diagnosis hook; [None] (the
    default) leaves dispatch untouched. *)
val set_tamper : t -> (Packet.t -> bytes) option -> unit

(** Install (or remove) a per-dispatch observer: called after every op
    attempt with the shard id, the op's source session and seq, whether
    the attempt succeeded, and the dispatched (possibly tampered)
    payload.  Called in dispatch order; spends no virtual time.  With
    [domains > 1] the hook runs on whichever domain claimed the shard
    — the differential oracle therefore drains on one domain. *)
val set_on_delivery :
  t ->
  (shard:int -> src:string -> seq:int -> ok:bool -> payload:bytes -> unit)
    option ->
  unit

val breaker_open : t -> bool
val breaker_trips : t -> int

(** {2 Crash recovery}

    The supervised kill/restore cycle (see doc/RECOVERY.md).  All four
    entry points run on the coordinator at an epoch boundary, in this
    order: {!capture} periodically, then on a kill draw {!kill} →
    {!restore} → journal replay (plain {!offer} / {!drain_batch} with
    the delivery hook off) → {!recovery_complete}. *)

(** Capture the shard's full live state — named counters, runtime
    globals, ingress queue and stats, retry table, dead letters,
    crash/spike stream positions, the adaptive controller
    ({!Podopt_optimize.Adaptive.save}: its cumulative graph, live
    window and installed plan) and the breaker — as one immutable
    {!Podopt_recover.Recover} snapshot, and count it
    in [recov.checkpoints].  The snapshot holds its own copies of every
    [bytes] (global [Bytes] values, queued and dead payloads), of the
    controller's graph and window (O(distinct edges)) and of the
    breaker; it shares only immutable data with the shard, such as
    strings.  No graph is reduced and no chain searched: only the
    printed form and {!profile_entry} build a store entry.
    Metrics histograms are not captured: a recovery rebuilds their
    post-checkpoint window from the journal replay, and the earlier
    window is a diagnostics loss outside the determinism invariant. *)
val capture : t -> epoch:int -> Podopt_recover.Recover.snapshot

(** [Recover.to_string] of a {!capture}, with the store entry built
    from the capture's saved controller: the checkpoint in its printed
    line format, which the wall-clock benchmark times and sizes.
    Nothing parses it. *)
val checkpoint : t -> epoch:int -> string

(** Simulated crash: replace the runtime, ingress queue, adaptive
    controller, breaker, and metrics with freshly wired ones and clear
    the retry table, dead letters and counters.  The fault injector,
    the [recov] counters and the session count survive. *)
val kill : t -> unit

(** Load a snapshot into a freshly {!kill}ed shard: restores counters,
    globals, queue, retries, dead letters and crash/spike stream
    positions from fresh copies (the snapshot stays intact for the next
    kill), restores the adaptive controller
    ({!Podopt_optimize.Adaptive.restore}: graph, live window, installed
    plan) and a copy of the breaker, so the shard optimizes, trips and
    re-optimizes exactly as it would have without the kill, then pins
    the virtual clock to the checkpointed time.  Raises
    [Invalid_argument] when the snapshot belongs to another shard or
    workload kind — a broker bug. *)
val restore : t -> Podopt_recover.Recover.snapshot -> unit

(** Account [redelivered] journal ops and arm the ramp capture: the
    next non-empty batch of new traffic records its dispatch-path
    split into [recov.ramp_optimized] / [recov.ramp_generic]. *)
val recovery_complete : t -> redelivered:int -> unit

val recovery : t -> recov

(** An immutable copy of every per-shard observable: ingress accounting,
    batch/dispatch counters, dispatch-path split, fallbacks, failure and
    quarantine accounting, breaker trips, handler time, and the shard
    runtime's final virtual clock.  Two runs of the same configuration
    are equivalent iff their snapshot arrays are structurally equal —
    this is what the parallel-determinism suite compares between
    [domains = 1] and [domains = N], fault plans included. *)
type snapshot = {
  snap_id : int;
  snap_sessions : int;
  snap_offered : int;
  snap_accepted : int;
  snap_shed : int;
  snap_displaced : int;
  snap_batches : int;
  snap_dispatched : int;
  snap_optimized : int;
  snap_generic : int;
  snap_fallbacks : int;
  snap_handler_failures : int;
  snap_requeued : int;
  snap_requeue_overflow : int;
  snap_quarantined : int;
  snap_dead_dropped : int;
  snap_breaker_trips : int;
  snap_kills : int;
  snap_recoveries : int;
  snap_redelivered : int;
  snap_checkpoints : int;
  snap_ramp_optimized : int;
  snap_ramp_generic : int;
  snap_busy : int;
  snap_clock : int;
  snap_queue_wait : Podopt_obs.Hist.dist;
  snap_service_opt : Podopt_obs.Hist.dist;
  snap_service_gen : Podopt_obs.Hist.dist;
  snap_batch_depth : Podopt_obs.Hist.dist;
}

val snapshot : t -> snapshot
val pp_snapshot : Format.formatter -> snapshot -> unit

(** Reset runtime measurements, ingress stats, shard counters, metrics
    histograms, breaker trip counts, the retry table, the dead-letter
    queue, and the session count (the steady-state measurement
    boundary).  Clearing the retry table and dead queue keeps failure
    accounting consistent across the boundary: a warm-up failure can
    no longer push a measured op straight into quarantine, and a
    post-reset snapshot never shows dead letters with [quarantined =
    0].  Recovery accounting resets too (a warm-up kill is not a
    measured kill); the supervisor pairs the reset with a fresh
    checkpoint.  Only the breaker's open/closed position survives. *)
val reset_measurements : t -> unit
