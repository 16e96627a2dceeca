open Podopt_eventsys
open Podopt_optimize
module Plan = Podopt_faults.Plan
module Packet = Podopt_net.Packet
module Hist = Podopt_obs.Hist
module Metrics = Podopt_obs.Metrics
module Recover = Podopt_recover.Recover

module Exact = Podopt_obs.Exact

(* Histogram names in the shard's metrics registry.  Queue wait is a
   log-bucketed Hist; the service-time and drain-size metrics are
   Exact (full-resolution) histograms — the deterministic cost model
   lands per-op costs on a handful of exact values, which one log
   bucket would collapse into a degenerate p50 = p90 = p99 = max. *)
let m_queue_wait = "queue_wait"
let m_service_opt = "service.optimized"
let m_service_gen = "service.generic"
let m_batch_depth = "batch.depth"

type stats = {
  mutable batches : int;
  mutable dispatched : int;
  mutable failures : int;
  mutable requeued : int;
  mutable quarantined : int;
  mutable dead_dropped : int;
  (* dispatch-path split of the first non-empty drained batch since the
     last reset — the warm-start ramp observable: a cold optimizing
     shard serves its first batch generic, a warm-started one serves it
     optimized *)
  mutable first_epoch_optimized : int;
  mutable first_epoch_generic : int;
  mutable first_epoch_seen : bool;
}

(* Crash-recovery accounting.  These counters live OUTSIDE the state a
   kill wipes and a checkpoint captures: they describe the recovery
   machinery itself, so resurrecting them from a checkpoint would erase
   the very kills they count. *)
type recov = {
  mutable kills : int;          (* injected crashes on this shard *)
  mutable recoveries : int;     (* completed checkpoint restores *)
  mutable redelivered : int;    (* journal ops replayed by recoveries *)
  mutable checkpoints : int;    (* checkpoints captured *)
  mutable ramp_pending : bool;  (* capture the next non-empty batch? *)
  mutable ramp_optimized : int; (* dispatch-path split of the first *)
  mutable ramp_generic : int;   (* post-recovery batch (accumulated) *)
}

type t = {
  id : int;
  kind : Workload.kind;
  (* the shard core a kill wipes and a restore rebuilds *)
  mutable inst : Workload.instance;
  mutable rt : Runtime.t;  (* = Workload.runtime inst, cached *)
  mutable ingress : Ingress.t;
  mutable adaptive : Adaptive.t option;
  mutable breaker : Breaker.t option;
  mutable metrics : Metrics.t;
  warm_installed : int;  (* super-handlers installed before any packet *)
  warm_stale : int;      (* stored-profile events rejected as stale *)
  stats : stats;
  recov : recov;
  mutable sessions : int;
  mutable faults : Plan.t option;
  max_failures : int;
  dead_limit : int;
  retry : (string * int, int) Hashtbl.t;
  dead : Packet.t Queue.t;
  (* construction knobs retained so a supervised restart rebuilds the
     core with exactly what [create] used *)
  queue_limit : int;
  shed_policy : Policy.shed;
  optimize : bool;
  compile : bool;
  breaker_policy : Breaker.policy option;
  mutable tamper : (Packet.t -> bytes) option;
  mutable on_delivery :
    (shard:int -> src:string -> seq:int -> ok:bool -> payload:bytes -> unit)
      option;
}

(* The dispatch hook's histograms, memoized by event id.  Each one is
   registered as "dispatch.<event>" on the event's first observation, so
   the registry lists exactly the events seen, and later dispatches
   neither build nor hash the name. *)
let dispatch_observer metrics =
  let hists = Hashtbl.create 16 in
  fun (ev : Event.t) dt ->
    let h =
      match Hashtbl.find hists ev.Event.id with
      | h -> h
      | exception Not_found ->
        let h = Metrics.histogram metrics ("dispatch." ^ ev.Event.name) in
        Hashtbl.add hists ev.Event.id h;
        h
    in
    Hist.observe h dt

(* Build the wipeable shard core: a fresh workload runtime with its
   metrics hook, ingress queue, adaptive controller, and breaker —
   shared by [create] and by [kill]'s supervised restart, so a
   resurrected shard is wired exactly like a newborn one. *)
let wire_core ~kind ~optimize ~compile ~queue_limit ~shed_policy
    ~breaker_policy =
  let inst = Workload.instantiate kind in
  let rt = Workload.runtime inst in
  (* one hostile handler must not abort the drain loop *)
  rt.Runtime.isolate_failures <- true;
  let metrics = Metrics.create () in
  (* per-event-kind dispatch-time distributions, nested dispatches
     included; purely observational, so the hook spends no virtual time
     and determinism is untouched *)
  Runtime.on_dispatch rt (dispatch_observer metrics);
  let adaptive =
    if optimize then
      let policy = { (Workload.adaptive_policy kind) with Adaptive.compile } in
      Some (Adaptive.create ~policy rt)
    else None
  in
  let breaker =
    match (optimize, breaker_policy) with
    | true, Some policy -> Some (Breaker.create ~policy ())
    | true, None -> Some (Breaker.create ())
    | false, _ -> None
  in
  (inst, rt, Ingress.create ~limit:queue_limit ~policy:shed_policy, adaptive,
   breaker, metrics)

let create ?faults ?(max_failures = 3) ?(dead_limit = 32) ?breaker
    ?(compile = true) ?warm ~id ~kind ~optimize ~queue_limit ~policy () =
  if max_failures < 1 then invalid_arg "Shard.create: max_failures < 1";
  if dead_limit < 1 then invalid_arg "Shard.create: dead_limit < 1";
  let inst, rt, ingress, adaptive, breaker', metrics =
    wire_core ~kind ~optimize ~compile ~queue_limit ~shed_policy:policy
      ~breaker_policy:breaker
  in
  (* Warm start: install super-handlers from the stored profile before
     any packet arrives.  Runs on the coordinator (shard construction
     precedes the pool spawn), so the result — like everything else
     derived from it — is identical at any domain count. *)
  let warm_installed, warm_stale =
    match (adaptive, warm) with
    | Some a, Some (graph, signatures) ->
      let w = Adaptive.warm_start a ~graph ~signatures in
      (w.Adaptive.installed, w.Adaptive.stale_events)
    | _ -> (0, 0)
  in
  {
    id;
    kind;
    inst;
    rt;
    ingress;
    adaptive;
    breaker = breaker';
    metrics;
    warm_installed;
    warm_stale;
    stats =
      {
        batches = 0;
        dispatched = 0;
        failures = 0;
        requeued = 0;
        quarantined = 0;
        dead_dropped = 0;
        first_epoch_optimized = 0;
        first_epoch_generic = 0;
        first_epoch_seen = false;
      };
    recov =
      {
        kills = 0;
        recoveries = 0;
        redelivered = 0;
        checkpoints = 0;
        ramp_pending = false;
        ramp_optimized = 0;
        ramp_generic = 0;
      };
    sessions = 0;
    faults =
      (match faults with
       | Some spec when Plan.enabled spec ->
         (* salt id+1: the broker front owns salt 0 *)
         Some (Plan.create ~salt:(id + 1) spec)
       | _ -> None);
    max_failures;
    dead_limit;
    retry = Hashtbl.create 64;
    dead = Queue.create ();
    queue_limit;
    shed_policy = policy;
    optimize;
    compile;
    breaker_policy = breaker;
    tamper = None;
    on_delivery = None;
  }

let set_faults t spec =
  t.faults <-
    (match spec with
     | Some s when Plan.enabled s -> Some (Plan.create ~salt:(t.id + 1) s)
     | _ -> None)

let offer t ~now pkt = Ingress.offer t.ingress ~now pkt

let retry_key (p : Packet.t) = (p.Packet.src, p.Packet.seq)

(* Dispatch one op behind the isolation boundary.  Returns true when the
   op completed without a handler failure (injected or real).  Injected
   crashes surface through the same counter as real ones so the
   snapshot, the breaker, and the quarantine logic see a single failure
   stream. *)
let dispatch_one t (p : Packet.t) =
  let rt = t.rt in
  let st = rt.Runtime.stats in
  let before = st.Runtime.handler_failures in
  let t0 = Runtime.now rt in
  let opt0 = st.Runtime.optimized_dispatches in
  (* the differential oracle's broken-handler fixture rewrites payloads
     here; the dispatched (possibly tampered) bytes are what the
     delivery hook observes *)
  let payload =
    match t.tamper with Some f -> f p | None -> p.Packet.payload
  in
  (try
     (match t.faults with
      | Some inj ->
        (match Plan.spike inj with
         | Some cost ->
           (* latency spike: inflate the op's virtual cost and attribute
              it to handler time, where a slow handler would charge it *)
           Runtime.charge rt cost;
           rt.Runtime.handler_time <- rt.Runtime.handler_time + cost
         | None -> ());
        if Plan.crash inj then raise Plan.Injected_failure
      | None -> ());
     Workload.dispatch t.inst payload
   with
   | Out_of_memory | Stack_overflow | Assert_failure _ as e ->
     (* fatal process conditions are not handler failures: a retry
        cannot repair them, so they propagate out of the drain loop *)
     raise e
   | _ ->
     (* injected crash, or an exception from native workload code
        outside the runtime's own isolation (e.g. decoding a corrupted
        payload): count it like any handler failure *)
     st.Runtime.handler_failures <- st.Runtime.handler_failures + 1);
  (* service time: the op's whole virtual cost on the shard clock,
     injected spikes included.  An op that took at least one optimized
     dispatch is attributed to the optimized path.  Only successful
     attempts are observed — a crashed attempt is not a served op, and
     its (often zero) cost would drag the percentiles down; failures
     are accounted in the failure counters instead. *)
  let ok = st.Runtime.handler_failures = before in
  if ok then begin
    let cost = Runtime.now rt - t0 in
    let path =
      if st.Runtime.optimized_dispatches > opt0 then m_service_opt
      else m_service_gen
    in
    Metrics.observe_exact t.metrics path cost
  end;
  (* purely observational, no virtual time: the oracle's outcome stream *)
  (match t.on_delivery with
   | Some f -> f ~shard:t.id ~src:p.Packet.src ~seq:p.Packet.seq ~ok ~payload
   | None -> ());
  ok

let quarantine t pkt =
  t.stats.quarantined <- t.stats.quarantined + 1;
  if Queue.length t.dead >= t.dead_limit then begin
    ignore (Queue.pop t.dead);
    t.stats.dead_dropped <- t.stats.dead_dropped + 1
  end;
  Queue.push pkt t.dead

let note_failure t (p : Packet.t) =
  t.stats.failures <- t.stats.failures + 1;
  let key = retry_key p in
  let count = 1 + Option.value ~default:0 (Hashtbl.find_opt t.retry key) in
  if count >= t.max_failures then begin
    Hashtbl.remove t.retry key;
    quarantine t p
  end
  else begin
    Hashtbl.replace t.retry key count;
    t.stats.requeued <- t.stats.requeued + 1;
    Ingress.requeue t.ingress ~due:(Runtime.now t.rt) p
  end

let fallbacks t =
  t.rt.Runtime.stats.Runtime.fallbacks + t.rt.Runtime.stats.Runtime.segment_fallbacks

let drain_batch t ~now ~batch =
  match Ingress.drain_timed t.ingress ~max:batch with
  | [] -> 0
  | pkts ->
    t.stats.batches <- t.stats.batches + 1;
    let failures0 = t.rt.Runtime.stats.Runtime.handler_failures in
    let fallbacks0 = fallbacks t in
    let opt0 = t.rt.Runtime.stats.Runtime.optimized_dispatches in
    let gen0 = t.rt.Runtime.stats.Runtime.generic_dispatches in
    (* the drained size, as the batch.depth distribution operators read *)
    Metrics.observe_exact t.metrics m_batch_depth (List.length pkts);
    let dispatch_pkt ((due, p) : int * Packet.t) =
      (* queue wait on the front clock, fresh arrivals only: a retry's
         due is the shard clock, a different timebase (and its wait is
         back-pressure policy, not arrival-to-drain latency) *)
      if not (Hashtbl.mem t.retry (retry_key p)) then
        Metrics.observe t.metrics m_queue_wait (max 0 (now - due));
      if dispatch_one t p then begin
        Hashtbl.remove t.retry (retry_key p);
        t.stats.dispatched <- t.stats.dispatched + 1
      end
      else note_failure t p
    in
    List.iter dispatch_pkt pkts;
    (* the warm-start ramp observable: how the very first batch after a
       (re)start or measurement reset split between the dispatch paths *)
    if not t.stats.first_epoch_seen then begin
      t.stats.first_epoch_seen <- true;
      t.stats.first_epoch_optimized <-
        t.rt.Runtime.stats.Runtime.optimized_dispatches - opt0;
      t.stats.first_epoch_generic <-
        t.rt.Runtime.stats.Runtime.generic_dispatches - gen0
    end;
    (* the post-recovery ramp observable: how the first non-empty batch
       after a supervised restart split between the dispatch paths.  A
       warm restart (super-handlers reinstalled from the checkpointed
       profile) serves it optimized; a cold one would serve it generic. *)
    if t.recov.ramp_pending then begin
      t.recov.ramp_pending <- false;
      t.recov.ramp_optimized <-
        t.recov.ramp_optimized
        + (t.rt.Runtime.stats.Runtime.optimized_dispatches - opt0);
      t.recov.ramp_generic <-
        t.recov.ramp_generic
        + (t.rt.Runtime.stats.Runtime.generic_dispatches - gen0)
    end;
    let events = List.length pkts in
    let faults =
      t.rt.Runtime.stats.Runtime.handler_failures - failures0
      + (fallbacks t - fallbacks0)
    in
    (match t.adaptive with
     | None -> ()
     | Some a -> (
       let installed = Runtime.optimized_events t.rt <> [] in
       match t.breaker with
       | Some b when installed || Breaker.is_open b -> (
         match Breaker.observe b ~events ~faults with
         | Breaker.Tripped ->
           (* revert to generic dispatch for the cool-down *)
           Runtime.uninstall_all t.rt;
           Runtime.clear_speculation t.rt
         | Breaker.Cooling -> ()
         | Breaker.Ok | Breaker.Recovered ->
           (* Recovered leaves nothing installed, so the controller's
              next re-optimization check takes over from here *)
           ignore (Adaptive.tick a))
       | _ -> ignore (Adaptive.tick a)));
    events

let force_reoptimize t =
  match t.adaptive with
  | Some a when Runtime.optimized_events t.rt = [] ->
    (match Adaptive.reoptimize a with Some _ -> true | None -> false)
  | _ -> false

let busy t = Runtime.total_handler_time t.rt
let dead_letters t = List.of_seq (Queue.to_seq t.dead)

let redrain_dead t =
  let n = Queue.length t.dead in
  while not (Queue.is_empty t.dead) do
    let pkt = Queue.pop t.dead in
    Hashtbl.remove t.retry (retry_key pkt);
    Ingress.requeue t.ingress ~due:(Runtime.now t.rt) pkt
  done;
  n

let fault_injector t = t.faults
let set_tamper t f = t.tamper <- f
let set_on_delivery t f = t.on_delivery <- f
let breaker_open t = match t.breaker with Some b -> Breaker.is_open b | None -> false
let breaker_trips t = match t.breaker with Some b -> Breaker.trips b | None -> 0

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
  snap_queue_wait : Hist.dist;
  snap_service_opt : Hist.dist;
  snap_service_gen : Hist.dist;
  snap_batch_depth : Hist.dist;
}

let pp_snapshot ppf s =
  Fmt.pf ppf
    "shard %d: sessions %d, offered %d, accepted %d, shed %d, displaced %d, \
     batches %d, \
     dispatched %d, optimized %d, generic %d, fallbacks %d, \
     failures %d, requeued %d, requeue-overflow %d, quarantined %d, \
     dead-dropped %d, breaker-trips %d, kills %d, recoveries %d, redelivered \
     %d, checkpoints %d, busy %d, clock %d, qwait %a, svc-opt %a, \
     svc-gen %a, depth %a"
    s.snap_id s.snap_sessions s.snap_offered s.snap_accepted s.snap_shed
    s.snap_displaced
    s.snap_batches s.snap_dispatched s.snap_optimized
    s.snap_generic s.snap_fallbacks s.snap_handler_failures s.snap_requeued
    s.snap_requeue_overflow s.snap_quarantined s.snap_dead_dropped
    s.snap_breaker_trips s.snap_kills s.snap_recoveries s.snap_redelivered
    s.snap_checkpoints s.snap_busy s.snap_clock Hist.pp_dist s.snap_queue_wait
    Hist.pp_dist s.snap_service_opt Hist.pp_dist s.snap_service_gen Hist.pp_dist s.snap_batch_depth

let optimized_dispatches t = t.rt.Runtime.stats.Runtime.optimized_dispatches
let generic_dispatches t = t.rt.Runtime.stats.Runtime.generic_dispatches
let warm_installed t = t.warm_installed
let warm_stale t = t.warm_stale
let first_epoch_optimized t = t.stats.first_epoch_optimized
let first_epoch_generic t = t.stats.first_epoch_generic

(* The inputs of the shard's cumulative profile, taken without folding
   the live trace: a copy of the adaptive controller's cumulative graph,
   the live trace window by reference, and the binding signature of
   every bound event.  [None] for generic shards. *)
let profile_inputs t =
  Option.map
    (fun a ->
      let rt = t.rt in
      let signatures =
        Registry.events_with_bindings rt.Runtime.registry rt.Runtime.events
        |> List.map (fun (ev : Event.t) ->
               ( ev.Event.name,
                 List.map
                   (fun (h : Handler.t) -> h.Handler.name)
                   (Registry.handlers rt.Runtime.registry ev) ))
        |> List.sort compare
      in
      {
        Recover.graph = Adaptive.cumulative_profile a;
        window = rt.Runtime.trace.Trace.entries;
        trace_entries = Adaptive.profile_trace_entries a;
        dispatched = t.stats.dispatched;
        threshold = (Adaptive.policy a).Adaptive.threshold;
        signatures;
      })
    t.adaptive

(* The shard's cumulative profile (the adaptive controller's graph,
   chains at the controller's own threshold, and the live binding
   signatures) as one store entry.  [None] for generic shards and for
   optimizing shards that observed nothing. *)
let profile_entry t =
  Option.bind (profile_inputs t)
    (Recover.profile_entry ~kind:(Workload.kind_to_string t.kind) ~shard:t.id)

(* --- crash recovery ----------------------------------------------------- *)

(* Every named counter a checkpoint carries.  [apply_counters] must
   understand exactly this list; the recover tests that restore a
   capture and compare printed forms pin the round trip. *)
let counters t : (string * int) list =
  let st = t.rt.Runtime.stats in
  let ist = Ingress.stats t.ingress in
  [
    ("rt.generic", st.Runtime.generic_dispatches);
    ("rt.optimized", st.Runtime.optimized_dispatches);
    ("rt.fallbacks", st.Runtime.fallbacks);
    ("rt.segment_fallbacks", st.Runtime.segment_fallbacks);
    ("rt.spec_hits", st.Runtime.spec_hits);
    ("rt.spec_misses", st.Runtime.spec_misses);
    ("rt.marshal_bytes", st.Runtime.marshal_bytes);
    ("rt.deferred_pairs", st.Runtime.deferred_pairs);
    ("rt.deferred_flushes", st.Runtime.deferred_flushes);
    ("rt.handler_failures", st.Runtime.handler_failures);
    ("rt.handler_time", t.rt.Runtime.handler_time);
    ("shard.batches", t.stats.batches);
    ("shard.dispatched", t.stats.dispatched);
    ("shard.failures", t.stats.failures);
    ("shard.requeued", t.stats.requeued);
    ("shard.quarantined", t.stats.quarantined);
    ("shard.dead_dropped", t.stats.dead_dropped);
    ("shard.first_epoch_optimized", t.stats.first_epoch_optimized);
    ("shard.first_epoch_generic", t.stats.first_epoch_generic);
    ("shard.first_epoch_seen", if t.stats.first_epoch_seen then 1 else 0);
    ("ingress.offered", ist.Ingress.offered);
    ("ingress.accepted", ist.Ingress.accepted);
    ("ingress.shed", ist.Ingress.shed);
    ("ingress.displaced", ist.Ingress.displaced);
    ("ingress.high_water", ist.Ingress.high_water);
    ("ingress.requeued", ist.Ingress.requeued);
    ("ingress.requeue_overflow", ist.Ingress.requeue_overflow);
  ]

let apply_counters t (cs : (string * int) list) =
  let v name = Option.value ~default:0 (List.assoc_opt name cs) in
  let st = t.rt.Runtime.stats in
  st.Runtime.generic_dispatches <- v "rt.generic";
  st.Runtime.optimized_dispatches <- v "rt.optimized";
  st.Runtime.fallbacks <- v "rt.fallbacks";
  st.Runtime.segment_fallbacks <- v "rt.segment_fallbacks";
  st.Runtime.spec_hits <- v "rt.spec_hits";
  st.Runtime.spec_misses <- v "rt.spec_misses";
  st.Runtime.marshal_bytes <- v "rt.marshal_bytes";
  st.Runtime.deferred_pairs <- v "rt.deferred_pairs";
  st.Runtime.deferred_flushes <- v "rt.deferred_flushes";
  st.Runtime.handler_failures <- v "rt.handler_failures";
  t.rt.Runtime.handler_time <- v "rt.handler_time";
  t.stats.batches <- v "shard.batches";
  t.stats.dispatched <- v "shard.dispatched";
  t.stats.failures <- v "shard.failures";
  t.stats.requeued <- v "shard.requeued";
  t.stats.quarantined <- v "shard.quarantined";
  t.stats.dead_dropped <- v "shard.dead_dropped";
  t.stats.first_epoch_optimized <- v "shard.first_epoch_optimized";
  t.stats.first_epoch_generic <- v "shard.first_epoch_generic";
  t.stats.first_epoch_seen <- v "shard.first_epoch_seen" <> 0;
  Ingress.set_stats t.ingress ~offered:(v "ingress.offered")
    ~accepted:(v "ingress.accepted") ~shed:(v "ingress.shed")
    ~displaced:(v "ingress.displaced")
    ~high_water:(v "ingress.high_water") ~requeued:(v "ingress.requeued")
    ~requeue_overflow:(v "ingress.requeue_overflow")

(* Capture the shard's full live state as one immutable checkpoint.
   Metrics histograms are deliberately NOT captured: a recovery
   rebuilds the post-checkpoint window of them from the journal replay,
   and the pre-checkpoint window is an observability loss, not a
   correctness one (histograms are diagnostics, outside the determinism
   invariant).  The pending runtime queue is empty at every epoch
   boundary (dispatch runs each op to completion), so the snapshot has
   no field for it. *)
let capture t ~epoch =
  let streams =
    match t.faults with
    | None -> []
    | Some inj ->
      (* the kill stream models the failure environment, not shard
         state: the supervisor draws it at epoch boundaries and it must
         keep advancing across restarts, so it stays live *)
      List.filter (fun (kind, _) -> kind <> "kill") (Plan.stream_states inj)
  in
  let snap =
    Recover.make ~shard:t.id ~epoch ~kind:(Workload.kind_to_string t.kind)
      ~clock:(Runtime.now t.rt) ~sessions:t.sessions ~counters:(counters t)
      ~globals:
        (Podopt_hir.Interp.Globals.fold
           (fun k v acc -> (k, v) :: acc)
           t.rt.Runtime.globals [])
      ~queue:(Ingress.to_list t.ingress)
      ~retries:(Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.retry [])
      ~dead:(List.of_seq (Queue.to_seq t.dead))
      ~streams ~profile:(profile_inputs t) ()
  in
  t.recov.checkpoints <- t.recov.checkpoints + 1;
  snap

let checkpoint t ~epoch = Recover.to_string (capture t ~epoch)

(* Simulated crash: throw away every piece of live shard state and
   rebuild the core exactly as [create] wired it.  The fault injector
   survives (its crash/spike streams are rewound by [restore]; its kill
   stream belongs to the environment), and so do the recovery counters
   — they count the kills, so the kill must not erase them. *)
let kill t =
  let inst, rt, ingress, adaptive, breaker, metrics =
    wire_core ~kind:t.kind ~optimize:t.optimize ~compile:t.compile
      ~queue_limit:t.queue_limit ~shed_policy:t.shed_policy
      ~breaker_policy:t.breaker_policy
  in
  t.inst <- inst;
  t.rt <- rt;
  t.ingress <- ingress;
  t.adaptive <- adaptive;
  t.breaker <- breaker;
  t.metrics <- metrics;
  Hashtbl.reset t.retry;
  Queue.clear t.dead;
  t.stats.batches <- 0;
  t.stats.dispatched <- 0;
  t.stats.failures <- 0;
  t.stats.requeued <- 0;
  t.stats.quarantined <- 0;
  t.stats.dead_dropped <- 0;
  t.stats.first_epoch_optimized <- 0;
  t.stats.first_epoch_generic <- 0;
  t.stats.first_epoch_seen <- false;
  t.sessions <- 0;
  t.recov.kills <- t.recov.kills + 1

(* Load a checkpoint into a freshly [kill]ed shard.  The shard gets
   its own copies of the snapshot's buffers: the same snapshot is
   restored again at the next kill unless a checkpoint replaces it.
   Ordering matters:

   - counters are applied before the warm start (the adaptive
     controller baselines its fallback counter against them) and again
     after it (the warm start's installs may bump counters a kill-free
     run never saw at this point);
   - the virtual clock is pinned last, absorbing any install costs the
     warm start charged, so the shard resumes at exactly the
     checkpointed time. *)
let restore t (snap : Recover.snapshot) =
  if snap.Recover.shard <> t.id then
    invalid_arg
      (Printf.sprintf "Shard.restore: checkpoint of shard %d offered to shard %d"
         snap.Recover.shard t.id);
  if snap.Recover.kind <> Workload.kind_to_string t.kind then
    invalid_arg
      (Printf.sprintf "Shard.restore: checkpoint kind %S offered to a %s shard"
         snap.Recover.kind
         (Workload.kind_to_string t.kind));
  let snap = Recover.copy snap in
  t.sessions <- snap.Recover.sessions;
  List.iter
    (fun (name, v) -> Runtime.set_global t.rt name v)
    snap.Recover.globals;
  Ingress.reload t.ingress ~floor:snap.Recover.clock snap.Recover.queue;
  apply_counters t snap.Recover.counters;
  List.iter
    (fun (key, count) -> Hashtbl.replace t.retry key count)
    snap.Recover.retries;
  List.iter (fun pkt -> Queue.push pkt t.dead) snap.Recover.dead;
  (match t.faults with
   | Some inj -> Plan.set_stream_states inj snap.Recover.streams
   | None -> ());
  (match (t.adaptive, snap.Recover.profile) with
   | Some a, Some p -> (
     match Recover.merged p with
     | Some (graph, signatures) ->
       Adaptive.absorb_graph a ~graph ~trace_entries:p.Recover.trace_entries;
       ignore (Adaptive.warm_start a ~graph ~signatures)
     | None -> ())
   | _ -> ());
  apply_counters t snap.Recover.counters;
  Vclock.set t.rt.Runtime.clock snap.Recover.clock;
  t.recov.recoveries <- t.recov.recoveries + 1

(* The supervisor finished redelivering the journal: account the
   replayed ops and arm the ramp capture, so the next non-empty batch
   of NEW traffic records how warm the restart came back. *)
let recovery_complete t ~redelivered =
  t.recov.redelivered <- t.recov.redelivered + redelivered;
  t.recov.ramp_pending <- true

let recovery t = t.recov

let handler_failures t = t.rt.Runtime.stats.Runtime.handler_failures
let metrics t = t.metrics
let queue_wait t = Metrics.histogram t.metrics m_queue_wait
let service_opt t = Metrics.exact t.metrics m_service_opt
let service_gen t = Metrics.exact t.metrics m_service_gen
let batch_depth t = Metrics.exact t.metrics m_batch_depth

let snapshot t =
  let ist = Ingress.stats t.ingress in
  {
    snap_id = t.id;
    snap_sessions = t.sessions;
    snap_offered = ist.Ingress.offered;
    snap_accepted = ist.Ingress.accepted;
    snap_shed = ist.Ingress.shed;
    snap_displaced = ist.Ingress.displaced;
    snap_batches = t.stats.batches;
    snap_dispatched = t.stats.dispatched;
    snap_optimized = optimized_dispatches t;
    snap_generic = generic_dispatches t;
    snap_fallbacks = fallbacks t;
    snap_handler_failures = handler_failures t;
    snap_requeued = t.stats.requeued;
    snap_requeue_overflow = ist.Ingress.requeue_overflow;
    snap_quarantined = t.stats.quarantined;
    snap_dead_dropped = t.stats.dead_dropped;
    snap_breaker_trips = breaker_trips t;
    snap_kills = t.recov.kills;
    snap_recoveries = t.recov.recoveries;
    snap_redelivered = t.recov.redelivered;
    snap_checkpoints = t.recov.checkpoints;
    snap_ramp_optimized = t.recov.ramp_optimized;
    snap_ramp_generic = t.recov.ramp_generic;
    snap_busy = busy t;
    snap_clock = Runtime.now t.rt;
    snap_queue_wait = Hist.dist (queue_wait t);
    snap_service_opt = Exact.dist (service_opt t);
    snap_service_gen = Exact.dist (service_gen t);
    snap_batch_depth = Exact.dist (batch_depth t);
  }

let reset_measurements t =
  Runtime.reset_measurements t.rt;
  Ingress.reset_stats t.ingress;
  t.stats.batches <- 0;
  t.stats.dispatched <- 0;
  t.stats.failures <- 0;
  t.stats.requeued <- 0;
  t.stats.quarantined <- 0;
  t.stats.dead_dropped <- 0;
  t.stats.first_epoch_optimized <- 0;
  t.stats.first_epoch_generic <- 0;
  t.stats.first_epoch_seen <- false;
  (* in-flight failure state is measurement too: a warm-up failure must
     not count toward a measured quarantine, and a post-reset snapshot
     must not show dead letters it no longer accounts for *)
  Hashtbl.reset t.retry;
  Queue.clear t.dead;
  Metrics.reset t.metrics;
  (match t.breaker with Some b -> Breaker.reset_measurements b | None -> ());
  (* recovery accounting is measurement too: warm-up kills must not
     count toward a measured report.  The supervisor pairs this with a
     fresh checkpoint (the reset is a state discontinuity the journal
     cannot replay across). *)
  t.recov.kills <- 0;
  t.recov.recoveries <- 0;
  t.recov.redelivered <- 0;
  t.recov.checkpoints <- 0;
  t.recov.ramp_pending <- false;
  t.recov.ramp_optimized <- 0;
  t.recov.ramp_generic <- 0;
  t.sessions <- 0
