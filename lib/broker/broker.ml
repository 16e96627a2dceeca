open Podopt_eventsys
module Packet = Podopt_net.Packet
module Plan = Podopt_faults.Plan
module V = Podopt_hir.Value
module Store = Podopt_store.Store
module Recover = Podopt_recover.Recover

type config = {
  shards : int;
  batch : int;
  queue_limit : int;
  policy : Policy.shed;
  kind : Workload.kind;
  optimize : bool;
  compile : bool;
  seed : int64;
  tick : int;
  domains : int;
  faults : Plan.spec;
  profile_in : Store.t option;
  checkpoint_every : int;
  route : Shard_map.route;   (* session-to-shard routing discipline *)
  arrivals : Arrivals.spec;  (* session op arrival process *)
}

let default_config =
  {
    shards = 2;
    batch = 16;
    queue_limit = 64;
    policy = Policy.Drop_newest;
    kind = Workload.Seccomm;
    optimize = true;
    compile = true;
    seed = 42L;
    tick = 50;
    domains = 1;
    faults = Plan.none;
    profile_in = None;
    checkpoint_every = 8;
    route = Shard_map.Hash;
    arrivals = Arrivals.Periodic;
  }

let deliver_event = "BrokerIngress"

type t = {
  cfg : config;
  front : Runtime.t;
  router : string -> int;            (* session id -> shard index *)
  shards : Shard.t array;
  pool : Podopt_exec.Pool.t;
  drained : int array;               (* per-shard scratch for drain epochs *)
  nacks : (string, int -> int -> unit) Hashtbl.t;
  session_shard : (string, int) Hashtbl.t;
  mutable routed : int;
  front_faults : Plan.t option;      (* salt 0: wire faults before decode *)
  mutable link_dropped : int;
  mutable decode_failures : int;
  (* the crash-recovery supervisor, armed when the fault plan can kill
     shards (kill_permille > 0): per-shard checkpoints (immutable
     snapshots; empty when unsupervised) plus the redo journals of
     everything fed to each shard since its last checkpoint.  All of it
     lives on the coordinator — kills, restores, and redelivery happen
     between epochs, never inside a drain. *)
  supervised : bool;
  journals : Recover.journal array;
  checkpoints : Recover.snapshot array;
  mutable epoch : int;  (* drain epochs since creation *)
  (* --- the stealing scheduler (see doc/SCHEDULER.md) ---------------
     [owner] is the shard-to-preferred-worker map the coordinator
     migrates at epoch boundaries.  No claim reads it: it feeds only
     the planned critical path ([critical]), the [migr] column and the
     [stole] telemetry.  [owner], [load_ema] and the migration plan are
     pure functions of recorded state, so they are identical from run
     to run; [executed_by]/[steals] record the actual (racy) claim
     schedule and are telemetry only — they must never feed snapshots,
     summaries, or serve JSON. *)
  owner : int array;              (* shard -> preferred worker *)
  load_ema : int array;
      (* exponentially smoothed pre-drain ingress depth per shard,
         fixed-point at scale 8 with decay 1/8 (steady state = 8x the
         per-epoch depth).  Smoothing keeps the planner blind to
         single-epoch ripple and responsive to sustained heat. *)
  mutable have_depths : bool;
  prev_busy : int array;          (* per-shard busy at epoch start *)
  wbusy : int array;              (* scratch: per-worker busy this epoch *)
  executed_by : int array;        (* per-shard claiming worker (scratch) *)
  stolen : int array;             (* per-shard off-owner drains (telemetry) *)
  migrated : int array;           (* per-shard migration count *)
  mutable steals : int;           (* total off-owner drains (telemetry) *)
  mutable migrations : (int * int * int * int) list;
      (* (epoch, shard, from, to), newest first — deterministic *)
  mutable sched_epoch : int;      (* scheduler epochs since reset *)
  mutable critical : int;
      (* accumulated per-epoch max planned worker busy: the scheduler's
         critical path under the deterministic ownership plan *)
}

let config t = t.cfg
let front t = t.front
let shards t = t.shards
let now t = Runtime.now t.front
let register t ~id ~nack = Hashtbl.replace t.nacks id nack

let route t (pkt : Packet.t) =
  let idx = t.router pkt.Packet.src in
  let shard = t.shards.(idx) in
  if not (Hashtbl.mem t.session_shard pkt.Packet.src) then begin
    Hashtbl.replace t.session_shard pkt.Packet.src idx;
    shard.Shard.sessions <- shard.Shard.sessions + 1
  end;
  t.routed <- t.routed + 1;
  (* journal every offer, shed or accepted: the redo log must reproduce
     the exact ingress-queue evolution (including evictions and stat
     increments), not just the ops that got in *)
  if t.supervised then
    Recover.record t.journals.(idx) (Recover.Offer (now t, pkt));
  match Shard.offer shard ~now:(now t) pkt with
  | Ingress.Accepted -> ()
  | Ingress.Shed victim ->
    (match Hashtbl.find_opt t.nacks victim.Packet.src with
     | Some nack -> nack victim.Packet.seq (now t)
     | None -> ())

(* Redo-journal high-water mark: room for [checkpoint_every] epochs of
   generous traffic per shard.  A flash crowd past it forces an early
   checkpoint at the next epoch boundary (entries are never dropped —
   that would lose admitted work). *)
let journal_limit cfg = max 64 (cfg.checkpoint_every * ((4 * cfg.batch) + 1))

let create (cfg : config) =
  if cfg.shards <= 0 then invalid_arg "Broker.create: shards <= 0";
  if cfg.batch <= 0 then invalid_arg "Broker.create: batch <= 0";
  if cfg.domains <= 0 then invalid_arg "Broker.create: domains <= 0";
  if cfg.checkpoint_every <= 0 then
    invalid_arg "Broker.create: checkpoint_every <= 0";
  (* the front door is a landing pad for link deliveries, not a measured
     runtime: routing must not consume simulation time, or the clock
     would leap past pending sessions and turn steady traffic into
     artificial bursts *)
  let front = Runtime.create ~costs:Costs.free () in
  front.Runtime.emit_log_enabled <- false;
  (* One aggregation of the stored profile feeds every shard's warm
     start; each shard checks the shared signatures against its own
     runtime.  Aggregation and installation happen here on the
     coordinator — before the pool spawns — so a warm-started run stays
     byte-identical at any domain count. *)
  let warm =
    match cfg.profile_in with
    | Some store when cfg.optimize ->
      let agg = Store.aggregate ~kind:(Workload.kind_to_string cfg.kind) store in
      Some (agg.Store.agg_graph, agg.Store.agg_signatures)
    | _ -> None
  in
  let shards =
    Array.init cfg.shards (fun id ->
        Shard.create ~faults:cfg.faults ~compile:cfg.compile ?warm ~id
          ~kind:cfg.kind ~optimize:cfg.optimize ~queue_limit:cfg.queue_limit
          ~policy:cfg.policy ())
  in
  (* the pool spawns after the shards exist: shard construction installs
     HIR primitives and parses programs on the coordinator, so helper
     domains only ever see fully built shards (published by the pool's
     barrier) *)
  let supervised = cfg.faults.Plan.kill_permille > 0 in
  (* the epoch-0 checkpoints: a kill before the first periodic capture
     restores the warm-started, pre-traffic shard.  Taken here on the
     coordinator, after warm start and before the pool exists. *)
  let checkpoints =
    if supervised then Array.map (fun s -> Shard.capture s ~epoch:0) shards
    else [||]
  in
  let pool = Podopt_exec.Pool.create ~domains:cfg.domains in
  let t =
    {
      cfg;
      front;
      router = Shard_map.router ~route:cfg.route ~shards:cfg.shards;
      shards;
      pool;
      drained = Array.make cfg.shards 0;
      nacks = Hashtbl.create 64;
      session_shard = Hashtbl.create 64;
      routed = 0;
      front_faults =
        (if Plan.enabled cfg.faults then Some (Plan.create ~salt:0 cfg.faults)
         else None);
      link_dropped = 0;
      decode_failures = 0;
      supervised;
      journals =
        Array.init cfg.shards (fun _ ->
            Recover.journal ~limit:(journal_limit cfg));
      checkpoints;
      epoch = 0;
      owner = Array.init cfg.shards (fun i -> i mod cfg.domains);
      load_ema = Array.make cfg.shards 0;
      have_depths = false;
      prev_busy = Array.make cfg.shards 0;
      wbusy = Array.make cfg.domains 0;
      executed_by = Array.make cfg.shards (-1);
      stolen = Array.make cfg.shards 0;
      migrated = Array.make cfg.shards 0;
      steals = 0;
      migrations = [];
      sched_epoch = 0;
      critical = 0;
    }
  in
  let front_door _host args =
    match args with
    | [ V.Bytes b ] ->
      (* Exactly one draw per packet from each wire-fault stream,
         whether or not the other fault fires: a drop-rate change
         never shifts which packets the corrupt stream picks. *)
      let dropped, b =
        match t.front_faults with
        | None -> (false, b)
        | Some inj ->
          let dropped = Plan.drop inj in
          let b = match Plan.corrupt inj b with Some b' -> b' | None -> b in
          (dropped, b)
      in
      if dropped then t.link_dropped <- t.link_dropped + 1
      else (
        match Packet.decode b with
        | pkt -> route t pkt
        | exception Packet.Decode_error ->
          t.decode_failures <- t.decode_failures + 1)
    | _ -> ()
  in
  (* the binding stays as the guard's generic fallback; deliveries take
     the paper's direct-call path: the same function installed as the
     event's super-handler, so no registry lookup, no marshal round trip
     of the wire and no indirect call.  It sees the link's own buffer,
     which nothing else holds (corruption copies; decode copies out). *)
  Runtime.bind front ~event:deliver_event
    (Handler.native "broker_route" front_door);
  Runtime.install_super front ~event:deliver_event ~covered:[ deliver_event ]
    ~arity:1 (fun host args ->
      front_door host args;
      V.Unit);
  t

let pump t ~until = Runtime.run ~until t.front

(* Crash recovery for one killed shard, on the coordinator: wipe, load
   the last checkpoint, then redeliver the redo journal in admission
   order — re-offering every journaled packet and re-running every
   journaled epoch drain, so the shard re-derives its exact pre-kill
   state (queue contents, retries, counters, stream positions, clock).
   The delivery hook is silenced for the replay: everything the journal
   re-dispatches already reached the clients the first time, and the
   oracle must not see those ops twice.  Crash/spike fault draws DO
   re-fire (from their checkpoint-rewound streams) — both the recording
   and the replaying run perform the identical re-draws, so the draw
   logs still match.  Nacks are not re-issued either: a journaled shed
   replays as the same shed, but the client's backoff already
   happened. *)
let recover_shard t i =
  let shard = t.shards.(i) in
  Shard.kill shard;
  let hook = shard.Shard.on_delivery in
  Shard.set_on_delivery shard None;
  Shard.restore shard t.checkpoints.(i);
  let redelivered = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Recover.Offer (now, pkt) ->
        incr redelivered;
        ignore (Shard.offer shard ~now pkt)
      | Recover.Drain (now, batch) ->
        ignore (Shard.drain_batch shard ~now ~batch))
    (Recover.entries t.journals.(i));
  Shard.set_on_delivery shard hook;
  Shard.recovery_complete shard ~redelivered:!redelivered

(* The supervisor's epoch-boundary pass, in shard-id order on the
   coordinator: draw each shard's kill, recover the casualties, then
   take the periodic (or journal-forced early) checkpoints. *)
let supervise t =
  t.epoch <- t.epoch + 1;
  Array.iteri
    (fun i shard ->
      (match Shard.fault_injector shard with
       | Some inj when Plan.kill inj -> recover_shard t i
       | Some _ | None -> ());
      if t.epoch mod t.cfg.checkpoint_every = 0 || Recover.full t.journals.(i)
      then begin
        t.checkpoints.(i) <- Shard.capture shard ~epoch:t.epoch;
        Recover.clear t.journals.(i)
      end)
    t.shards

(* One epoch's migration plan: a pure function of the previously
   observed per-shard queue depths, the current ownership map, and the
   domain count — nothing schedule-dependent enters, so the plan (and
   the whole ownership history) is identical from run to run.  Greedy
   rebalance: while the heaviest worker carries more than the lightest,
   move the heaviest shard that strictly shrinks the gap (classical LPT
   condition [depth < gap]; ties break to the lowest index).  Returns
   the moves as [(shard, from, to)] in decision order. *)
let migration_plan ~domains ~depths owner =
  if domains <= 1 then []
  else begin
    let load = Array.make domains 0 in
    Array.iteri (fun i o -> load.(o) <- load.(o) + depths.(i)) owner;
    (* hysteresis: transient depth noise on a balanced workload produces
       small gaps in every epoch; churning ownership over them costs
       locality and buys nothing.  Only rebalance gaps that exceed both
       an absolute floor (2 ops at the ema's scale of 8) and half the
       mean per-worker load — a genuinely hot worker, not a ripple. *)
    let threshold =
      max 16 (Array.fold_left ( + ) 0 load / (2 * domains))
    in
    let owner = Array.copy owner in
    let moves = ref [] in
    let continue = ref true in
    (* each accepted move strictly shrinks the max-min gap, so the loop
       terminates; the budget is a belt on top of those braces *)
    let budget = ref (4 * Array.length owner) in
    while !continue && !budget > 0 do
      decr budget;
      let wmax = ref 0 and wmin = ref 0 in
      for w = 1 to domains - 1 do
        if load.(w) > load.(!wmax) then wmax := w;
        if load.(w) < load.(!wmin) then wmin := w
      done;
      let gap = load.(!wmax) - load.(!wmin) in
      if gap <= threshold then continue := false
      else begin
        let best = ref (-1) in
        Array.iteri
          (fun i o ->
            if
              o = !wmax && depths.(i) > 0 && depths.(i) < gap
              && (!best = -1 || depths.(i) > depths.(!best))
            then best := i)
          owner;
        match !best with
        | -1 -> continue := false
        | i ->
          owner.(i) <- !wmin;
          load.(!wmax) <- load.(!wmax) - depths.(i);
          load.(!wmin) <- load.(!wmin) + depths.(i);
          moves := (i, !wmax, !wmin) :: !moves
      end
    done;
    List.rev !moves
  end

(* The scheduler's epoch boundary, on the coordinator: apply the
   migration plan decided from the depths observed over PREVIOUS epochs
   (the smoothed [load_ema]), then fold this epoch's pre-drain depths
   into the ema for the next decision.  At one domain the plan is
   always empty. *)
let rebalance t ~depths =
  if t.have_depths then
    List.iter
      (fun (i, from_w, to_w) ->
        t.owner.(i) <- to_w;
        t.migrated.(i) <- t.migrated.(i) + 1;
        t.migrations <- (t.sched_epoch, i, from_w, to_w) :: t.migrations)
      (migration_plan ~domains:t.cfg.domains ~depths:t.load_ema t.owner);
  Array.iteri
    (fun i d -> t.load_ema.(i) <- t.load_ema.(i) - (t.load_ema.(i) / 8) + d)
    depths;
  t.have_depths <- true

(* One drain epoch, the same at every domain count.  The coordinator
   freezes the epoch's shard list hottest-first and every pool lane —
   the coordinator itself is lane 0 — claims whole shards with an atomic
   fetch-and-add: zero-copy, because the shard struct (state, ingress
   queue, retry/dead tables, fault streams, adaptive profile) is the
   unit of work and never moves in memory.  The pool's barrier
   separates this drain step from the next routing step, each shard is
   claimed exactly once per epoch, and [now] is captured once on the
   coordinator — so every shard sees the exact batch boundaries and
   dispatch order of any other run, and no shard is ever touched by two
   domains at once.  Which lane drains a shard is pure scheduling;
   per-shard results cannot depend on it.

   Under supervision the epoch boundary runs first, on the coordinator:
   kill draws, recoveries, checkpoints, and the journal's epoch marks
   all precede the drain, which is why per-shard results stay
   byte-identical at any domain count even while shards die and
   resurrect.  Checkpoints and journals are keyed by shard id, never by
   lane, so a migrated shard's next kill restores and redelivers exactly
   as an unmigrated one's would. *)
let drain t =
  let now = now t in
  if t.supervised then begin
    supervise t;
    Array.iter
      (fun j -> Recover.record j (Recover.Drain (now, t.cfg.batch)))
      t.journals
  end;
  let depths = Array.map (fun s -> Ingress.length s.Shard.ingress) t.shards in
  rebalance t ~depths;
  t.sched_epoch <- t.sched_epoch + 1;
  Array.iteri (fun i s -> t.prev_busy.(i) <- Shard.busy s) t.shards;
  let batch = t.cfg.batch in
  (* hottest shards first (LPT by this epoch's depth, shard-id tie
     break): claim order is wall-clock scheduling only *)
  let order = Array.init t.cfg.shards Fun.id in
  Array.sort
    (fun a b ->
      match compare depths.(b) depths.(a) with
      | 0 -> compare a b
      | c -> c)
    order;
  Podopt_exec.Pool.run_steal t.pool order (fun ~worker ~slot:_ i ->
      t.executed_by.(i) <- worker;
      t.drained.(i) <- Shard.drain_batch t.shards.(i) ~now ~batch);
  (* off-owner claims = steals: telemetry, outside every byte-compared
     surface.  The planned critical path charges each shard's busy
     delta to its (deterministic) owner and accumulates the heaviest
     worker. *)
  Array.fill t.wbusy 0 t.cfg.domains 0;
  Array.iteri
    (fun i s ->
      let w = t.owner.(i) in
      if t.executed_by.(i) <> w && depths.(i) > 0 then begin
        t.steals <- t.steals + 1;
        t.stolen.(i) <- t.stolen.(i) + 1
      end;
      t.wbusy.(w) <- t.wbusy.(w) + (Shard.busy s - t.prev_busy.(i)))
    t.shards;
  t.critical <- t.critical + Array.fold_left max 0 t.wbusy;
  Array.fold_left ( + ) 0 t.drained

let domains t = t.cfg.domains
let shutdown t = Podopt_exec.Pool.shutdown t.pool

let advance_to t upto = if upto > now t then Vclock.set t.front.Runtime.clock upto

let idle t =
  Runtime.pending t.front = 0
  && Array.for_all (fun s -> Ingress.length s.Shard.ingress = 0) t.shards

let routed t = t.routed
let link_dropped t = t.link_dropped
let decode_failures t = t.decode_failures

(* Scheduler accounting.  [migrations]/[migrated]/[critical_busy] are
   deterministic for a given config (pure functions of recorded state);
   [steals]/[stolen] reflect the actual claim race and are telemetry
   only — keep them out of anything byte-compared. *)
let steals t = t.steals
let stolen t = Array.copy t.stolen
let migrated t = Array.copy t.migrated
let migrations t = List.rev t.migrations
let migration_count t = Array.fold_left ( + ) 0 t.migrated
let critical_busy t = t.critical

(* Recovery accounting, summed over shards. *)
let supervised t = t.supervised
let sum_recov t f =
  Array.fold_left (fun acc s -> acc + f (Shard.recovery s)) 0 t.shards
let kills t = sum_recov t (fun r -> r.Shard.kills)
let recoveries t = sum_recov t (fun r -> r.Shard.recoveries)
let redelivered t = sum_recov t (fun r -> r.Shard.redelivered)
let checkpoints_taken t = sum_recov t (fun r -> r.Shard.checkpoints)
let ramp_optimized t = sum_recov t (fun r -> r.Shard.ramp_optimized)
let ramp_generic t = sum_recov t (fun r -> r.Shard.ramp_generic)

(* Whether this broker was built with a stored profile feeding its
   (optimizing) shards' warm start. *)
let warm_start t = t.cfg.optimize && t.cfg.profile_in <> None
let warm_installed t = Array.fold_left (fun acc s -> acc + Shard.warm_installed s) 0 t.shards
let warm_stale t = Array.fold_left (fun acc s -> acc + Shard.warm_stale s) 0 t.shards

(* Every optimizing shard's cumulative profile as a store — the
   [--profile-out] surface. *)
let profile_store t : Store.t =
  Store.of_entries
    (Array.to_list t.shards |> List.filter_map Shard.profile_entry)

(* Attach (or clear) one fault-draw logger on every live injector: the
   front's (salt 0) and each shard's (salt id+1).  Per-salt streams are
   each touched by a single domain at a time (front on the coordinator,
   a shard on the lane that claimed it, with the pool's barrier between
   epochs), so a logger that keeps per-salt state needs no locking. *)
let set_fault_logger t logger =
  (match t.front_faults with
   | Some inj -> Plan.set_logger inj logger
   | None -> ());
  Array.iter
    (fun s ->
      match Shard.fault_injector s with
      | Some inj -> Plan.set_logger inj logger
      | None -> ())
    t.shards

let set_delivery_hook t hook =
  Array.iter (fun s -> Shard.set_on_delivery s hook) t.shards

let set_tamper t f = Array.iter (fun s -> Shard.set_tamper s f) t.shards
let force_reoptimize t = Array.iter (fun s -> ignore (Shard.force_reoptimize s)) t.shards

let reset_measurements t =
  t.routed <- 0;
  t.link_dropped <- 0;
  t.decode_failures <- 0;
  (* scheduler telemetry resets with the measurement window; the
     ownership map, observed depths, and epoch counter survive (they
     are warm-phase-derived and deterministic, so a replayed run
     re-reaches exactly this state at its own reset) *)
  t.steals <- 0;
  t.critical <- 0;
  t.migrations <- [];
  Array.fill t.stolen 0 (Array.length t.stolen) 0;
  Array.fill t.migrated 0 (Array.length t.migrated) 0;
  Hashtbl.reset t.session_shard;
  Array.iter Shard.reset_measurements t.shards;
  (* the reset is a state discontinuity the redo journal cannot replay
     across (retry tables and dead queues just vanished outside any
     journaled op): re-anchor every shard on a fresh checkpoint, or a
     post-reset kill would resurrect pre-reset state and diverge *)
  if t.supervised then
    Array.iteri
      (fun i shard ->
        t.checkpoints.(i) <- Shard.capture shard ~epoch:t.epoch;
        Recover.clear t.journals.(i))
      t.shards
