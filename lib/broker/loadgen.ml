module Link = Podopt_net.Link
module Hist = Podopt_obs.Hist
module Metrics = Podopt_obs.Metrics
module Equeue = Podopt_eventsys.Equeue

type profile = {
  sessions : int;
  ops : int;
  interval : int;
  spread : int;
  latency : int;
  jitter : int;
}

let default_profile =
  { sessions = 8; ops = 8; interval = 200; spread = 37; latency = 50; jitter = 0 }

type latency = {
  queue_wait : Hist.dist;
  service_opt : Hist.dist;
  service_gen : Hist.dist;
  batch_depth : Hist.dist;
}

type summary = {
  sent : int;
  retries : int;
  nacks : int;
  gave_up : int;
  routed : int;
  shed : int;        (* arrivals rejected at the door (Drop_newest) *)
  displaced : int;   (* accepted arrivals that evicted the queue head
                        (Drop_oldest); offered = accepted + shed *)
  dispatched : int;
  batches : int;
  optimized : int;
  generic : int;
  fallbacks : int;
  failures : int;
  requeued : int;
  quarantined : int;
  breaker_trips : int;
  link_dropped : int;
  decode_failures : int;
  kills : int;
  recoveries : int;
  redelivered : int;
  checkpoints : int;
  ramp_optimized : int;
  ramp_generic : int;
  first_epoch_optimized : int;
  first_epoch_generic : int;
  latency : latency;
  busy : int;
  makespan : int;
  elapsed : int;
  truncated : bool;
}

(* Fast-path share in percent: 0, not 100, when nothing was dispatched —
   an idle shard has optimized nothing. *)
let opt_share ~optimized ~generic =
  let total = optimized + generic in
  if total = 0 then 0.0
  else 100.0 *. float_of_int optimized /. float_of_int total

let opt_pct s = opt_share ~optimized:s.optimized ~generic:s.generic

let session broker (profile : profile) ~index ~id ~ops ~start ~interval =
  let cfg = Broker.config broker in
  let seed = Int64.add cfg.Broker.seed (Int64.of_int (index + 1)) in
  let link =
    Link.create ~latency:profile.latency ~jitter:profile.jitter ~seed ()
  in
  (* Open-loop arrivals replace the closed-loop grid with a seeded
     schedule — same per-session seed as the link (Arrivals salts its
     stream, so the draws stay uncorrelated). *)
  let schedule =
    match cfg.Broker.arrivals with
    | Arrivals.Periodic -> None
    | spec ->
      Some
        (Arrivals.schedule spec ~seed ~start ~interval ~ops:(Array.length ops))
  in
  let s =
    Session.create ~id ~link ~ops ~start ~interval ?schedule
      ~backoff:Policy.default_backoff ()
  in
  Broker.register broker ~id ~nack:(fun seq now -> Session.nack s ~seq ~now);
  s

let make_sessions broker profile =
  let kind = (Broker.config broker).Broker.kind in
  let start0 = Broker.now broker in
  List.init profile.sessions (fun i ->
      session broker profile ~index:i ~id:(Printf.sprintf "s%03d" i)
        ~ops:
          (Array.init profile.ops (fun k ->
               Workload.op_payload kind ~session:i ~seq:k))
        ~start:(start0 + (i * profile.spread))
        ~interval:profile.interval)

let summarize ?(truncated = false) broker sessions ~elapsed =
  let shards = Broker.shards broker in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 shards in
  let maxi f = Array.fold_left (fun acc s -> max acc (f s)) 0 shards in
  let client f = List.fold_left (fun acc s -> acc + f (Session.stats s)) 0 sessions in
  {
    sent = client (fun st -> st.Session.sent);
    retries = client (fun st -> st.Session.retries);
    nacks = client (fun st -> st.Session.nacks);
    gave_up = client (fun st -> st.Session.gave_up);
    routed = Broker.routed broker;
    shed = sum (fun s -> (Ingress.stats s.Shard.ingress).Ingress.shed);
    displaced = sum (fun s -> (Ingress.stats s.Shard.ingress).Ingress.displaced);
    dispatched = sum (fun s -> s.Shard.stats.Shard.dispatched);
    batches = sum (fun s -> s.Shard.stats.Shard.batches);
    optimized = sum Shard.optimized_dispatches;
    generic = sum Shard.generic_dispatches;
    fallbacks = sum Shard.fallbacks;
    failures = sum Shard.handler_failures;
    requeued = sum (fun s -> s.Shard.stats.Shard.requeued);
    quarantined = sum (fun s -> s.Shard.stats.Shard.quarantined);
    breaker_trips = sum Shard.breaker_trips;
    link_dropped = Broker.link_dropped broker;
    decode_failures = Broker.decode_failures broker;
    kills = Broker.kills broker;
    recoveries = Broker.recoveries broker;
    redelivered = Broker.redelivered broker;
    checkpoints = Broker.checkpoints_taken broker;
    ramp_optimized = Broker.ramp_optimized broker;
    ramp_generic = Broker.ramp_generic broker;
    first_epoch_optimized = sum Shard.first_epoch_optimized;
    first_epoch_generic = sum Shard.first_epoch_generic;
    latency =
      (let merged =
         Metrics.merge_all
           (Array.to_list (Array.map (fun s -> s.Shard.metrics) shards))
       in
       let module Exact = Podopt_obs.Exact in
       {
         queue_wait = Hist.dist merged.Metrics.queue_wait;
         service_opt = Exact.dist merged.Metrics.service_opt;
         service_gen = Exact.dist merged.Metrics.service_gen;
         batch_depth = Exact.dist merged.Metrics.batch_depth;
       });
    busy = sum Shard.busy;
    makespan = maxi Shard.busy;
    elapsed;
    truncated;
  }

(* The tick budget, derived from the load itself: the send horizon in
   ticks, plus an epoch per op for drains (an epoch always drains at
   least one op from a non-empty shard), plus slack for the retry and
   backoff tail.  The old fixed 1_000_000 default silently under-scaled
   for large open-loop session counts — a 10^5-session run would
   truncate and its counters would describe an unfinished run.  The
   computed bound grows with the profile, so hitting it means the run
   is genuinely wedged, not merely big. *)
let default_max_ticks ~tick ~t0 sessions =
  let horizon =
    List.fold_left (fun acc s -> max acc (Session.horizon s)) t0 sessions
  in
  let ops =
    List.fold_left (fun acc s -> acc + Array.length (Session.ops s)) 0 sessions
  in
  ((horizon - t0 + 100_000) / max tick 1) + (8 * ops) + 1024

let run ?max_ticks broker sessions =
  let tick = (Broker.config broker).Broker.tick in
  let t0 = Broker.now broker in
  let max_ticks =
    match max_ticks with
    | Some m -> m
    | None -> default_max_ticks ~tick ~t0 sessions
  in
  let sess = Array.of_list sessions in
  (* Session wheel: a due-time index over the sessions, so a tick costs
     O(sessions due now), not O(all sessions).  Each unfinished session
     keeps at least one wheel entry at (or before) its earliest pending
     work; nack-scheduled retries re-index through the waker, since
     they land after the session's entry for the tick was already
     consumed.  Duplicate entries are harmless — due indices are
     deduped before pumping. *)
  let wheel : int Equeue.t = Equeue.create () in
  Array.iteri
    (fun i s ->
      Session.set_waker s (Some (fun due -> Equeue.push wheel ~due i));
      match Session.next_due s with
      | Some due -> Equeue.push wheel ~due i
      | None -> ())
    sess;
  let pump_due now =
    let rec collect acc =
      if Equeue.next_due wheel <= now && not (Equeue.is_empty wheel) then
        collect (Equeue.take wheel :: acc)
      else acc
    in
    (* ascending session index: the exact relative order the full
       List.iter scan pumped in, so the front door's push order — and
       with it every downstream observable — is unchanged *)
    let due = List.sort_uniq compare (collect []) in
    List.iter
      (fun i ->
        let s = sess.(i) in
        Session.pump s ~now ~rt:(Broker.front broker)
          ~deliver_event:Broker.deliver_event;
        match Session.next_due s with
        | Some due -> Equeue.push wheel ~due i
        | None -> ())
      due
  in
  let ticks = ref 0 in
  (* an empty wheel means every session finished (each unfinished one
     holds an entry), so the old List.for_all scan is not needed in the
     loop condition *)
  while
    (not (Equeue.is_empty wheel && Broker.idle broker)) && !ticks < max_ticks
  do
    incr ticks;
    let now = Broker.now broker in
    pump_due now;
    Broker.pump broker ~until:now;
    ignore (Broker.drain broker);
    Broker.advance_to broker (now + tick)
  done;
  Array.iter (fun s -> Session.set_waker s None) sess;
  (* Hitting the tick budget means the run was cut off mid-flight: the
     summary's counters describe an unfinished run.  Flag it rather than
     reporting the truncated run as if it completed. *)
  let truncated =
    not (List.for_all Session.finished sessions && Broker.idle broker)
  in
  summarize ~truncated broker sessions ~elapsed:(Broker.now broker - t0)

let steady ?(warmup_ops = 12) ?max_ticks ?make broker profile =
  let make =
    match make with Some f -> f | None -> fun _ p -> make_sessions broker p
  in
  if warmup_ops > 0 then begin
    ignore (run broker (make "w" { profile with ops = warmup_ops }));
    if (Broker.config broker).Broker.optimize then Broker.force_reoptimize broker
  end;
  Broker.reset_measurements broker;
  run ?max_ticks broker (make "m" profile)
