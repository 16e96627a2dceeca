(** The event broker: many client sessions multiplexed onto N isolated
    shards.

    Encoded packets arrive over per-session links at the broker's
    *front* runtime (the [BrokerIngress] event — external stimuli enter
    as implicitly raised events, exactly like the paper's Sec. 2.2).  A
    native routing handler decodes each packet and offers it to the
    shard owning the session ({!Shard_map} of the packet source); full
    ingress queues shed per {!Policy.shed}, and shed packets are
    nack'ed back to the owning session for retry-with-backoff.

    The front runtime's virtual clock is the simulation clock; shards
    advance their own clocks as they dispatch.  Everything downstream
    of the seeded links is deterministic.

    The broker drains its shards on a pool of [domains] OCaml 5 domains
    ({!Podopt_exec.Pool}), the coordinator among them: every simulation
    epoch routes packets on the coordinator, then freezes the shard
    list hottest-first into the pool's run queue, where every lane —
    the coordinator is lane 0, [domains - 1] helper domains the rest —
    claims whole shards with an atomic fetch-and-add, then joins at a
    barrier before the next routing step.  At [domains = 1] the
    coordinator drains every shard itself.  At epoch boundaries the
    coordinator also migrates shard {e ownership} (the preferred
    worker) from the previous epochs' observed queue depths; no claim
    reads it — it feeds only the planned critical path and the
    scheduler telemetry (see doc/SCHEDULER.md).

    Each shard is claimed exactly once per epoch and the epoch barrier
    separates drain from the next routing step, so per-shard dispatch
    order — and therefore every per-shard stat, trace, and
    adaptive-optimizer decision — is byte-identical at any domain
    count (see the parallel and steal test suites). *)

open Podopt_eventsys

type config = {
  shards : int;
  batch : int;           (** max ops drained per shard per pump *)
  queue_limit : int;     (** per-shard ingress bound *)
  policy : Policy.shed;
  kind : Workload.kind;
  optimize : bool;       (** per-shard adaptive optimization on/off *)
  compile : bool;
      (** compiled (default) vs interpreted super-handlers — observably
          identical, different virtual cost; the differential oracle's
          second axis *)
  seed : int64;          (** base seed for session links *)
  tick : int;            (** virtual units per simulation step *)
  domains : int;
      (** draining domains, the coordinator included; 1 = the
          coordinator drains alone *)
  faults : Podopt_faults.Plan.spec;
      (** deterministic fault plan; the front injector (salt 0) applies
          drops and wire corruption before decode, each shard's injector
          (salt id+1) applies crashes and latency spikes at dispatch *)
  profile_in : Podopt_store.Store.t option;
      (** stored profile warm-starting every optimizing shard: the
          matching entries are aggregated once on the coordinator and
          super-handlers install before the first packet arrives; stale
          entries degrade to generic dispatch (see
          {!Shard.create}) *)
  checkpoint_every : int;
      (** epochs between shard checkpoints ([--checkpoint-every],
          default 8) when the fault plan can kill shards
          ([kill_permille > 0]); without kills the recovery machinery
          is entirely off.  A journal past its high-water mark forces
          an early checkpoint. *)
  route : Shard_map.route;
      (** [--route]: session-to-shard map — [Hash] (uniform FNV-1a,
          default) or [Zipf s] (rank-skewed; shard 0 hottest).  Changes
          which shard serves a session, so it IS observable — the same
          route must be used when comparing runs. *)
  arrivals : Arrivals.spec;
      (** [--arrivals]: the sessions' op arrival process — [Periodic]
          (the closed-loop grid, default) or one of the open-loop
          processes ([Uniform] / [Pareto] / [Flash]), applied by
          {!Loadgen.make_sessions} via {!Arrivals.schedule}.  Changes
          when ops are sent, so it IS observable; like the route, it
          is byte-identical at any domain count for a fixed spec. *)
}

val default_config : config
(** 2 shards, batch 16, queue limit 64, [Drop_newest], SecComm,
    optimized, compiled, seed 42, tick 50, 1 domain, no faults, no
    stored profile, checkpoint every 8 epochs, hash routing, periodic
    arrivals. *)

type t

val create : config -> t
val config : t -> config

(** The event sessions address their packets to. *)
val deliver_event : string

(** The front (ingress) runtime — hand this to {!Session.pump}. *)
val front : t -> Runtime.t

val shards : t -> Shard.t array
val now : t -> int

(** Register the shed-notification callback for a session id.
    Registering an id again REPLACES the previous callback — the pinned
    contract {!Loadgen.steady} relies on: the steady phase re-registers
    the warm-up's ids ("s000"...), and from that moment a nack for the
    id reaches only the steady-phase session.  A warm-phase session
    object can never receive a steady-phase nack. *)
val register : t -> id:string -> nack:(int -> int -> unit) -> unit

(** Route a decoded packet (exposed for tests; live traffic arrives via
    the front runtime's [BrokerIngress] handler). *)
val route : t -> Podopt_net.Packet.t -> unit

(** Deliver every link packet due by [until] (routing each into its
    shard's ingress queue). *)
val pump : t -> until:int -> unit

(** Drain one batch from every shard; returns the total ops dispatched.
    One epoch on the domain pool, the same at every domain count: the
    coordinator applies the migration plan decided from the previous
    epochs' recorded queue depths (deterministic), then every lane,
    itself included, claims whole shards hottest-first from the epoch's
    run queue (wall-clock scheduling only), joining at a barrier, with
    totals merged in shard-id order on the coordinator.

    Under supervision (a fault plan with [kill_permille > 0]) the epoch
    boundary runs first, on the coordinator and in shard-id order: each
    shard's kill stream is drawn once, casualties are wiped, restored
    from their last checkpoint, and redelivered their redo journal in
    admission order (with the delivery hook silenced — those ops
    already reached the clients), then due checkpoints are taken.  End
    of run observables are therefore byte-identical to the same run
    with kills disabled, at any domain count. *)
val drain : t -> int

val domains : t -> int

(** Join the pool's helper domains.  Call when done with the broker;
    using {!drain} afterwards raises.  Idempotent. *)
val shutdown : t -> unit

(** Advance the front clock to [upto] (never backwards). *)
val advance_to : t -> int -> unit

(** No packet in flight and every ingress queue empty. *)
val idle : t -> bool

(** Packets routed since the last reset. *)
val routed : t -> int

(** Packets the fault plan dropped at the front (before decode). *)
val link_dropped : t -> int

(** Wire buffers that failed to decode (e.g. corrupted by the fault
    plan); each is counted, never silently swallowed. *)
val decode_failures : t -> int

(** {2 Scheduler accounting} (see doc/SCHEDULER.md)

    [migrations]/[migrated]/[migration_count]/[critical_busy] are pure
    functions of recorded state — identical from run to run for a given
    config.  [steals]/[stolen] record the actual claim race and are
    telemetry only: they never enter snapshots, summaries, or serve
    JSON (which must stay byte-identical at any domain count).
    Ownership and migration feed only [critical_busy], the [migr]
    column and the [stole] telemetry: no claim reads them. *)

(** [migration_plan ~domains ~depths owner] is one epoch's planner
    decision, a pure function of its arguments: while the heaviest
    worker's summed [depths] exceed the lightest's by more than a
    hysteresis threshold, move the heaviest shard that strictly shrinks
    the gap.  Returns the moves as [(shard, from, to)] in decision
    order; [[]] when [domains <= 1] or the load is balanced.  [owner]
    is not modified. *)
val migration_plan :
  domains:int -> depths:int array -> int array -> (int * int * int) list

(** Off-owner shard claims since the last reset (schedule-dependent). *)
val steals : t -> int

(** Per-shard off-owner claim counts (schedule-dependent). *)
val stolen : t -> int array

(** Per-shard migration counts since the last reset (deterministic). *)
val migrated : t -> int array

(** The migration history since the last reset, oldest first, as
    [(epoch, shard, from_worker, to_worker)] — the plan the replay log
    records and replay re-verifies. *)
val migrations : t -> (int * int * int * int) list

val migration_count : t -> int

(** Accumulated per-epoch maximum planned worker busy — the
    scheduler's critical path under the deterministic ownership plan.
    The bench's skew metric: lower means the fleet serializes less
    behind its hottest lane. *)
val critical_busy : t -> int

(** {2 Crash-recovery accounting} (see doc/RECOVERY.md) *)

(** Whether the crash-recovery supervisor is armed
    ([faults.kill_permille > 0]). *)
val supervised : t -> bool

(** Injected shard kills, summed over shards. *)
val kills : t -> int

(** Completed checkpoint restores, summed over shards. *)
val recoveries : t -> int

(** Journal ops redelivered by recoveries, summed over shards. *)
val redelivered : t -> int

(** Checkpoints captured (epoch-0, periodic, journal-forced, and
    reset-boundary ones), summed over shards. *)
val checkpoints_taken : t -> int

(** Post-recovery warm ramp, summed over shards: the dispatch-path
    split of the first non-empty batch of new traffic after each
    recovery.  A warm restart shows [ramp_optimized > 0]. *)
val ramp_optimized : t -> int

val ramp_generic : t -> int

(** Whether the broker was built from a stored profile
    ([profile_in] set on an optimizing config). *)
val warm_start : t -> bool

(** Super-handlers installed from the stored profile before any packet
    arrived, summed over shards. *)
val warm_installed : t -> int

(** Stored-profile events rejected as stale, summed over shards. *)
val warm_stale : t -> int

(** Every optimizing shard's cumulative profile as a store — what
    [--profile-out] writes.  Deterministic and independent of the
    domain count. *)
val profile_store : t -> Podopt_store.Store.t

(** Install (or with [None] remove) one fault-draw logger on every live
    injector — the front's (salt 0) and each shard's (salt id+1).  Each
    salt's stream is drawn by exactly one domain, so per-salt logger
    state needs no locking.  See {!Podopt_faults.Plan.set_logger}. *)
val set_fault_logger :
  t -> (salt:int -> kind:string -> fired:bool -> unit) option -> unit

(** Install (or remove) the per-dispatch observer on every shard (see
    {!Shard.set_on_delivery}; with [domains > 1] it runs on whichever
    lane claimed the shard, so oracle runs use one domain). *)
val set_delivery_hook :
  t ->
  (shard:int -> src:string -> seq:int -> ok:bool -> payload:bytes -> unit)
    option ->
  unit

(** Install (or remove) the pre-dispatch payload rewriter on every
    shard (see {!Shard.set_tamper}). *)
val set_tamper : t -> (Podopt_net.Packet.t -> bytes) option -> unit

(** Force adaptive analysis on shards with nothing installed yet (the
    end-of-warm-up hook). *)
val force_reoptimize : t -> unit

(** Steady-state measurement boundary: reset every shard's runtime
    measurements and counters, the routed count, and session-to-shard
    accounting. *)
val reset_measurements : t -> unit
