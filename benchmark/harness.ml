(* One round of a workload: build a broker, warm it up, then drive the
   measured sessions flat out through a session wheel, timing the three
   public entry points of each simulation step from outside —
   [Session.pump] (client), [Broker.pump] (front) and [Broker.drain]
   (drain) — and stamping every delivery through the broker's delivery
   hook.

   The load is unpaced: arrivals, queueing and shedding are decided in
   virtual time and come out the same at any wall speed, so pacing the
   generator by the wall clock would change nothing the program decides.
   An op's response time runs from the wall-clock start of the step in
   which it became due to its first successful delivery.

   Every round of a run replays the same inputs on a fresh broker, so
   every round must produce the same observables digest. *)

open Bigarray
module B = Podopt_broker
module Broker = B.Broker
module Session = B.Session
module Shard = B.Shard
module Ingress = B.Ingress
module Equeue = Podopt_eventsys.Equeue
module Runtime = Podopt_eventsys.Runtime
module Link = Podopt_net.Link
module Plan = Podopt_faults.Plan

type ibuf = (int, int_elt, c_layout) Array1.t

let ibuf n =
  let a = Array1.create int c_layout (max n 1) in
  Array1.fill a 0;
  a

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let warmup_ops = 12

(* --- host speed --------------------------------------------------------

   The benchmark shares its host with other tenants, whose load comes in
   periods of minutes that slow everything here by 15-80%.  So every
   round is bracketed by a fixed probe, and its times are scaled to the
   reference host speed (the probe taking [reference_probe_ns]).  The
   probe mixes arithmetic, hashing and short-lived allocation like the
   event code it stands in for, but promotes nothing and runs right after
   a full major GC, so the program's own heap cannot change its time; it
   is the fastest of three runs, so a momentary spike does not count. *)

let probe_mask = 1023
let probe_table = Hashtbl.create 2048
let () = for k = 0 to probe_mask do Hashtbl.replace probe_table k 0 done

let probe_once () =
  let t0 = now_ns () in
  let acc = ref 0 in
  for i = 0 to 99_999 do
    let l = List.init 6 (fun k -> (i lxor k) * 40503) in
    Hashtbl.replace probe_table (i land probe_mask) (List.fold_left ( + ) 0 l);
    acc := !acc + Hashtbl.find probe_table ((i * 7) land probe_mask)
  done;
  ignore (Sys.opaque_identity !acc);
  now_ns () - t0

(* The probe's time on a calm 2.0 GHz Xeon vCPU. *)
let reference_probe_ns = 7_650_000

(* Host slowness now: 1.0 at reference speed, 1.3 when 30% slower. *)
let host_factor () =
  Gc.full_major ();
  let best = min (probe_once ()) (min (probe_once ()) (probe_once ())) in
  float_of_int best /. float_of_int reference_probe_ns

(* --- inputs ------------------------------------------------------------ *)

type inputs = {
  w : Workloads.t;
  seed : int;
  sessions : int;
  ops : int;                     (* per session *)
  payloads : bytes array array;  (* a [table] x [table] grid of distinct payloads *)
}

(* Session [i] sends payload [(i mod table, k mod table)] as its op [k].
   A small shared table keeps the inputs out of the major heap, whose
   size sets the cost of every major GC slice: a server does not hold
   all its future requests in memory.  [table] is a multiple of 4, so
   the X storm's opcode mix ((session + seq) mod 4) is kept. *)
let table = 64

(* The seed picks the payload contents (the chat fan-out width rides in
   the payload), the link and arrival streams, and the fault plan. *)
let inputs (w : Workloads.t) ~seed ~quick =
  let sessions, ops =
    if quick then (w.quick_sessions, w.quick_ops) else (w.sessions, w.ops)
  in
  let base = (seed land 0xffff) * 1009 in
  {
    w;
    seed;
    sessions;
    ops;
    payloads =
      Array.init table (fun r ->
          Array.init table (fun c ->
              B.Workload.op_payload w.kind ~session:(base + r) ~seq:c));
  }

let link_seed inp i = Int64.of_int ((inp.seed * 100_003) + i + 1)

let config inp ~optimize =
  let w = inp.w in
  let faults =
    if w.faults = "" then Plan.none
    else
      match Plan.of_string (Printf.sprintf "seed=%d,%s" inp.seed w.faults) with
      | Ok spec -> spec
      | Error e -> invalid_arg e
  in
  {
    Broker.default_config with
    Broker.shards = w.shards;
    batch = w.batch;
    queue_limit = w.queue_limit;
    policy = w.policy;
    kind = w.kind;
    optimize;
    seed = Int64.of_int inp.seed;
    domains = w.domains;
    faults;
    checkpoint_every = w.checkpoint_every;
    route = w.route;
    arrivals = w.arrivals;
  }

(* Sessions named like [Loadgen]'s ("s000", ...), so routing matches
   [podopt serve]; returns each session's due times too. *)
let make_sessions broker inp ~ops =
  let w = inp.w in
  let start0 = Broker.now broker in
  let backoff = { B.Policy.default_backoff with B.Policy.max_retries = w.max_retries } in
  let dues = Array.make inp.sessions [||] in
  let sessions =
    Array.init inp.sessions (fun i ->
        let id = Printf.sprintf "s%03d" i in
        let seed = link_seed inp i in
        let link = Link.create ~seed () in
        let start = start0 + (i / w.wave * w.wave * w.spread) in
        let schedule =
          B.Arrivals.schedule w.arrivals ~seed ~start ~interval:w.interval ~ops
        in
        dues.(i) <- schedule;
        let row = inp.payloads.(i mod table) in
        let payloads = Array.init ops (fun k -> row.(k mod table)) in
        let s =
          Session.create ~id ~link ~ops:payloads ~start ~interval:w.interval
            ~schedule ~backoff ()
        in
        Broker.register broker ~id ~nack:(fun seq now -> Session.nack s ~seq ~now);
        s)
  in
  (sessions, dues)

(* --- per-shard delivery lanes ------------------------------------------

   Written only from the delivery hook.  Each shard is drained by exactly
   one domain per epoch and epochs are barrier-separated, so a lane is
   never written by two domains at once. *)

type lane = {
  mutable epoch : int;     (* drain epoch of the last delivery *)
  mutable last : int;      (* wall stamp of the last delivery, ns *)
  mutable digest : int;    (* hash chain over (src, seq, ok, crc32 payload) *)
  mutable deliveries : int;
  mutable oks : int;       (* successful deliveries *)
  mutable gaps : ibuf;     (* op gaps, ns *)
  mutable ngaps : int;
  mutable gap_sum : int;
}

let mix h x = (h lxor x) * 0x100000001b3
let fnv_basis = 0x4bf29ce484222325  (* FNV-1a offset basis, top bit dropped to fit an int *)

(* CRC-32 of a payload, the checksum the replay oracle uses.  Its table
   is a lazy value, which worker domains must not force at the same
   time: [round] forces it on the coordinator before installing the
   delivery hook. *)
let crc32 = Podopt_crypto.Crc32.compute

(* "s042" -> 42, without allocating *)
let session_index src =
  let n = ref 0 in
  for i = 1 to String.length src - 1 do
    n := (!n * 10) + Char.code (String.unsafe_get src i) - 48
  done;
  !n

(* --- percentiles over an off-heap buffer ------------------------------- *)

(* k-th smallest of [a.{0 .. n-1}] (0-based), reordering in place. *)
let select (a : ibuf) n k =
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let pivot = a.{(!lo + !hi) / 2} in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.{!i} < pivot do incr i done;
      while a.{!j} > pivot do decr j done;
      if !i <= !j then begin
        let x = a.{!i} in
        a.{!i} <- a.{!j};
        a.{!j} <- x;
        incr i;
        decr j
      end
    done;
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  a.{k}

(* nearest-rank percentile *)
let percentile a n p =
  if n = 0 then 0
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    select a n (max 0 (min (n - 1) (rank - 1)))

(* A fresh copy of [b] with every sample multiplied by [k]. *)
let scaled (b : ibuf) k =
  let c = ibuf (Array1.dim b) in
  for i = 0 to Array1.dim b - 1 do
    c.{i} <- int_of_float (float_of_int b.{i} *. k)
  done;
  c

(* The buffers laid end to end, in a fresh buffer. *)
let pool (bufs : ibuf list) =
  let n = List.fold_left (fun acc b -> acc + Array1.dim b) 0 bufs in
  let all = ibuf n in
  ignore
    (List.fold_left
       (fun off b ->
         Array1.blit b (Array1.sub all off (Array1.dim b));
         off + Array1.dim b)
       0 bufs);
  all

(* --- the session wheel --------------------------------------------------

   A due-time index over the sessions, as in [Loadgen.run]: a step costs
   O(sessions due), and sessions are pumped in ascending index order. *)

(* Wall time per layer over one drive, ns. *)
type times = {
  mutable session_ns : int;
  mutable front_ns : int;
  mutable drain_ns : int;
  mutable driver_ns : int;
  mutable rec_steps : int;  (* steps in which a checkpoint or recovery ran *)
  mutable rec_ns : int;
  mutable other_ns : int;
}

(* The Chrome file covers the first [span_steps] steps of the traced
   round that keeps spans, on every lane alike. *)
let span_steps = 1000

let max_steps ~tick ~t0 sessions =
  let horizon, ops =
    Array.fold_left
      (fun (h, n) s -> (max h (Session.horizon s), n + Array.length (Session.ops s)))
      (t0, 0) sessions
  in
  ((horizon - t0 + 100_000) / tick) + (8 * ops) + 1024

(* Runs the sessions to completion; returns the number of steps,
   whether the step budget cut the run short, and the time per layer.
   [step_start] (when given) receives each step's wall start; [epoch] is
   bumped before each drain so the delivery hook can tell drains apart.
   A traced round passes [gc] (polled every 16 steps) and, for the
   Chrome file, [sink]. *)
let drive ?step_start ?sink ?gc broker sessions ~epoch =
  let tick = (Broker.config broker).Broker.tick in
  let t0 = Broker.now broker in
  let budget = max_steps ~tick ~t0 sessions in
  let wheel : int Equeue.t = Equeue.create () in
  Array.iteri
    (fun i s ->
      Session.set_waker s (Some (fun due -> Equeue.push wheel ~due i));
      Option.iter (fun due -> Equeue.push wheel ~due i) (Session.next_due s))
    sessions;
  let front = Broker.front broker in
  let pump_due now =
    let rec collect acc =
      match Equeue.peek wheel with
      | Some (due, _) when due <= now ->
        (match Equeue.pop wheel with Some (_, i) -> collect (i :: acc) | None -> acc)
      | _ -> acc
    in
    List.iter
      (fun i ->
        let s = sessions.(i) in
        Session.pump s ~now ~rt:front ~deliver_event:Broker.deliver_event;
        Option.iter (fun due -> Equeue.push wheel ~due i) (Session.next_due s))
      (List.sort_uniq compare (collect []))
  in
  let recov () = Broker.checkpoints_taken broker + Broker.recoveries broker in
  let t =
    {
      session_ns = 0;
      front_ns = 0;
      drain_ns = 0;
      driver_ns = 0;
      rec_steps = 0;
      rec_ns = 0;
      other_ns = 0;
    }
  in
  let steps = ref 0 in
  while (not (Equeue.is_empty wheel && Broker.idle broker)) && !steps < budget do
    let k = !steps in
    let now = Broker.now broker in
    assert (now = t0 + (k * tick));
    let ta = now_ns () in
    Option.iter (fun b -> b.{k} <- ta) step_start;
    pump_due now;
    let tb = now_ns () in
    Broker.pump broker ~until:now;
    let tc = now_ns () in
    let r0 = recov () in
    incr epoch;
    ignore (Broker.drain broker);
    let td = now_ns () in
    let moved = recov () <> r0 in
    Broker.advance_to broker (now + tick);
    if k land 15 = 0 then
      Option.iter
        (fun g ->
          Trace.gc_poll g;
          if k >= span_steps then g.Trace.tot.sink <- None)
        gc;
    let te = now_ns () in
    t.session_ns <- t.session_ns + (tb - ta);
    t.front_ns <- t.front_ns + (tc - tb);
    t.drain_ns <- t.drain_ns + (td - tc);
    t.driver_ns <- t.driver_ns + (te - td);
    if moved then begin
      t.rec_steps <- t.rec_steps + 1;
      t.rec_ns <- t.rec_ns + (te - ta)
    end
    else t.other_ns <- t.other_ns + (te - ta);
    if k < span_steps then
      Option.iter
        (fun s ->
          Trace.add s ~lane:0 ~name:Trace.step ~start:ta ~stop:te;
          Trace.add s ~lane:0 ~name:Trace.session ~start:ta ~stop:tb;
          Trace.add s ~lane:0 ~name:Trace.front ~start:tb ~stop:tc;
          Trace.add s ~lane:0 ~name:Trace.drain ~start:tc ~stop:td)
        sink;
    incr steps
  done;
  Option.iter Trace.gc_poll gc;
  Array.iter (fun s -> Session.set_waker s None) sessions;
  let finished = Array.for_all Session.finished sessions && Broker.idle broker in
  (!steps, not finished, t)

(* --- one round ----------------------------------------------------------- *)

type round = {
  setup_ns : int;        (* Broker.create through warm-up and reoptimize to the reset *)
  reopt_ns : int;        (* Broker.force_reoptimize alone *)
  wall_ns : int;         (* the measured phase *)
  truncated : bool;
  scheduled : int;
  ok : int;              (* successful deliveries *)
  failed : int;          (* scheduled ops never delivered successfully *)
  sends : int;           (* first sends plus retries *)
  resp : ibuf;           (* per scheduled op: response time, ns *)
  gaps : ibuf;           (* op gaps, ns *)
  digest : string;
  layers : (string * float) list;  (* per-layer metrics of this round *)
}

let fsum f a = Array.fold_left (fun acc x -> acc + f x) 0 a
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The delivery hook: stamps each delivery, records the op gap when the
   previous delivery on the shard belongs to the same drain epoch, chains
   the digest, and keeps each op's first successful delivery stamp. *)
let delivery_hook lanes ~epoch ~first_ok ~ops ~op_spans =
  let epoch0 = !epoch in
  fun ~shard ~src ~seq ~ok ~payload ->
    let t = now_ns () in
    let l = lanes.(shard) in
    if l.epoch = !epoch then begin
      let g = t - l.last in
      if l.ngaps >= Array1.dim l.gaps then begin
        let bigger = ibuf (2 * l.ngaps) in
        Array1.blit l.gaps (Array1.sub bigger 0 l.ngaps);
        l.gaps <- bigger
      end;
      l.gaps.{l.ngaps} <- g;
      l.ngaps <- l.ngaps + 1;
      l.gap_sum <- l.gap_sum + g;
      if !epoch - epoch0 <= span_steps then
        Option.iter
          (fun s -> Trace.add s ~lane:(100 + shard) ~name:Trace.op ~start:l.last ~stop:t)
          op_spans.(shard)
    end
    else l.epoch <- !epoch;
    l.last <- t;
    let si = session_index src in
    l.digest <- mix (mix (mix (mix l.digest si) seq) (Bool.to_int ok)) (crc32 payload);
    l.deliveries <- l.deliveries + 1;
    if ok then begin
      l.oks <- l.oks + 1;
      let i = (si * ops) + seq in
      if first_ok.{i} = 0 then first_ok.{i} <- t
    end

(* Per scheduled op, the wall time from the start of the step in which
   it became due to its first successful delivery; an op never delivered
   counts as a miss that waited the whole round.  Also returns the
   number of such misses. *)
let responses ~first_ok ~dues ~step_start ~steps ~t0 ~tick ~wall_ns =
  let ops = Array.length dues.(0) in
  let resp = ibuf (Array1.dim first_ok) and failed = ref 0 in
  Array.iteri
    (fun i due ->
      for k = 0 to ops - 1 do
        let idx = (i * ops) + k in
        let stamp = first_ok.{idx} in
        if stamp = 0 then begin
          incr failed;
          resp.{idx} <- wall_ns
        end
        else
          let step = min (steps - 1) (max 0 ((due.(k) - t0 + tick - 1) / tick)) in
          resp.{idx} <- stamp - step_start.{step}
      done)
    dues;
  (resp, !failed)

(* Per shard in order, the delivery chain and count; then every
   session's client accounting. *)
let digest lanes sessions =
  let h =
    Array.fold_left (fun h (l : lane) -> mix (mix h l.digest) l.deliveries) fnv_basis lanes
  in
  let h =
    Array.fold_left
      (fun h s ->
        let st = Session.stats s in
        mix (mix (mix (mix h st.Session.sent) st.Session.retries) st.Session.nacks)
          st.Session.gave_up)
      h sessions
  in
  Printf.sprintf "%016x" (h land max_int)

(* Per-layer counters: deterministic for a given seed except
   sched.steals, which records the actual claim race. *)
let counters broker sessions ~ok ~steps ~minor_words ~majors =
  let shards = Broker.shards broker in
  let ing f = fsum (fun s -> f (Ingress.stats s.Shard.ingress)) shards in
  let st f = fsum (fun s -> f (Session.stats s)) sessions in
  let rt f = fsum (fun s -> f s.Shard.rt.Runtime.stats) shards in
  let adaptive f =
    fsum (fun s -> match s.Shard.adaptive with Some a -> f a | None -> 0) shards
  in
  let offered = ing (fun i -> i.Ingress.offered) in
  let optimized = fsum Shard.optimized_dispatches shards
  and generic = fsum Shard.generic_dispatches shards in
  let busy = fsum Shard.busy shards in
  let qwait =
    Array.fold_left
      (fun acc s -> Podopt_obs.Hist.merge acc (Shard.queue_wait s))
      (Podopt_obs.Hist.create ()) shards
  in
  let attempts =
    fsum (fun s -> s.Shard.stats.Shard.dispatched) shards + fsum Shard.handler_failures shards
  in
  let f = float_of_int in
  [
    ("session.sent", f (st (fun x -> x.Session.sent)));
    ("session.retries", f (st (fun x -> x.Session.retries)));
    ("session.gave_up", f (st (fun x -> x.Session.gave_up)));
    ("front.routed", f (Broker.routed broker));
    ("front.link_dropped", f (Broker.link_dropped broker));
    ("ingress.offered", f offered);
    ("ingress.accept_ratio", ratio (ing (fun i -> i.Ingress.accepted)) offered);
    ("ingress.shed", f (ing (fun i -> i.Ingress.shed)));
    ("ingress.displaced", f (ing (fun i -> i.Ingress.displaced)));
    ("ingress.qwait_units_p99", f (Podopt_obs.Hist.percentile qwait 99));
    ("drain.steps", f steps);
    ("drain.ops_per_step", ratio attempts steps);
    ("sched.steals", f (Broker.steals broker));
    ("sched.migrations", f (Broker.migration_count broker));
    ("sched.critical_share", ratio (Broker.critical_busy broker) busy);
    ("dispatch.optimized", f optimized);
    ("dispatch.generic", f generic);
    ("dispatch.opt_share", ratio optimized (optimized + generic));
    ("dispatch.fallbacks", f (fsum Shard.fallbacks shards));
    ("dispatch.failures", f (fsum Shard.handler_failures shards));
    ("dispatch.marshal_bytes_per_op", ratio (rt (fun s -> s.Runtime.marshal_bytes)) ok);
    ("dispatch.units_per_op", ratio busy ok);
    ("optimizer.reoptimizations", f (adaptive Podopt_optimize.Adaptive.reoptimizations));
    ("optimizer.breaker_trips", f (fsum Shard.breaker_trips shards));
    ("recover.kills", f (Broker.kills broker));
    ("recover.recoveries", f (Broker.recoveries broker));
    ("recover.redelivered", f (Broker.redelivered broker));
    ("recover.checkpoints", f (Broker.checkpoints_taken broker));
    ("gc.minor_words_per_op", if ok = 0 then 0. else minor_words /. f ok);
    ("gc.major_collections", f majors);
  ]

(* Median of three standalone checkpoints of shard 0, after the run. *)
let checkpoint_cost broker =
  let shard = (Broker.shards broker).(0) in
  let times =
    List.init 3 (fun _ ->
        let t = now_ns () in
        let s = Shard.checkpoint shard ~epoch:0 in
        (now_ns () - t, String.length s))
  in
  match List.sort compare times with
  | [ _; (t, bytes); _ ] -> (t, bytes)
  | _ -> assert false

(* The layer timings of a traced round. *)
let traced_layers (t : times) ~gc broker ~counts ~domains ~steps ~gaps ~gap_sum ~wall_ns =
  let s x = float_of_int x /. 1e9 in
  let count k = List.assoc k counts in
  let dom = float_of_int domains in
  let per n d = if d = 0. then 0. else float_of_int n /. d in
  let mean n d = per n (float_of_int d) in
  let ckpt_ns, ckpt_bytes = checkpoint_cost broker in
  let gapped_units = count "dispatch.units_per_op" *. float_of_int gaps in
  let gc f = float_of_int (f gc.Trace.tot) /. 1e6 in
  [
    ("session.pump_s", s t.session_ns);
    ("session.ns_per_send", per t.session_ns (count "session.sent" +. count "session.retries"));
    ("front.pump_s", s t.front_ns);
    ("front.ns_per_routed", mean t.front_ns (Broker.routed broker));
    ("drain.s", s t.drain_ns);
    ("drain.overhead_s", (float_of_int t.drain_ns -. (float_of_int gap_sum /. dom)) /. 1e9);
    ("sched.busy_share", per gap_sum (float_of_int t.drain_ns *. dom));
    ("dispatch.op_gap_s", s gap_sum);
    ("dispatch.ns_per_unit", per gap_sum gapped_units);
    ("recover.ckpt_bytes", float_of_int ckpt_bytes);
    ("recover.ckpt_us", float_of_int ckpt_ns /. 1e3);
    ("recover.step_extra_ms",
     if t.rec_steps = 0 || t.rec_steps = steps then 0.
     else (mean t.rec_ns t.rec_steps -. mean t.other_ns (steps - t.rec_steps)) /. 1e6);
    ("gc.minor_ms", gc (fun t -> t.Trace.minor_ns));
    ("gc.major_ms", gc (fun t -> t.Trace.major_ns));
    ("gc.coordinator_ms", gc (fun t -> t.Trace.ring0_ns));
    ("driver.s", s (wall_ns - t.session_ns - t.front_ns - t.drain_ns));
    ("trace.coverage",
     ratio (t.session_ns + t.front_ns + t.drain_ns + t.driver_ns) wall_ns);
  ]

(* Drive one round.  [gc] makes it a traced round (GC phases and the
   per-layer timings); [sink] also collects its spans for the Chrome
   file. *)
let round ?gc ?sink inp ~optimize =
  let cfg = config inp ~optimize in
  let epoch = ref 0 in
  let t_setup = now_ns () in
  let broker = Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> Broker.shutdown broker)
    (fun () ->
      let warm, _ = make_sessions broker inp ~ops:(min warmup_ops inp.ops) in
      ignore (drive broker warm ~epoch : int * bool * times);
      let t_reopt = now_ns () in
      if optimize then Broker.force_reoptimize broker;
      let reopt_ns = now_ns () - t_reopt in
      Broker.reset_measurements broker;
      let setup_ns = now_ns () - t_setup in
      (* the measured phase *)
      let sessions, dues = make_sessions broker inp ~ops:inp.ops in
      let scheduled = inp.sessions * inp.ops in
      let t0 = Broker.now broker in
      let step_start = ibuf (max_steps ~tick:cfg.Broker.tick ~t0 sessions + 1) in
      let first_ok = ibuf scheduled in
      let lanes =
        Array.init cfg.Broker.shards (fun _ ->
            {
              epoch = -1;
              last = 0;
              digest = fnv_basis;
              deliveries = 0;
              oks = 0;
              (* room for a whole round on one shard (Zipf routing puts
                 half the ops on shard 0), so the hook rarely grows it *)
              gaps = ibuf (scheduled + 1);
              ngaps = 0;
              gap_sum = 0;
            })
      in
      (* op spans per shard, written by the worker that drains the shard *)
      let op_spans =
        Array.map
          (fun _ -> Option.map (fun (s : Trace.t) -> Trace.create ~cap:(s.cap / cfg.shards)) sink)
          lanes
      in
      ignore (crc32 Bytes.empty : int);
      Broker.set_delivery_hook broker
        (Some (delivery_hook lanes ~epoch ~first_ok ~ops:inp.ops ~op_spans));
      Option.iter (fun g -> Trace.gc_reset g ~sink) gc;
      let gc0 = Gc.quick_stat () in
      let t_start = now_ns () in
      let steps, truncated, times = drive ~step_start ?sink ?gc broker sessions ~epoch in
      let wall_ns = now_ns () - t_start in
      let gc1 = Gc.quick_stat () in
      Broker.set_delivery_hook broker None;
      let resp, failed =
        responses ~first_ok ~dues ~step_start ~steps ~t0 ~tick:cfg.Broker.tick ~wall_ns
      in
      let gaps =
        pool (Array.to_list (Array.map (fun (l : lane) -> Array1.sub l.gaps 0 l.ngaps) lanes))
      in
      let ok = fsum (fun (l : lane) -> l.oks) lanes in
      let counts =
        counters broker sessions ~ok ~steps
          ~minor_words:(gc1.Gc.minor_words -. gc0.Gc.minor_words)
          ~majors:(gc1.Gc.major_collections - gc0.Gc.major_collections)
      in
      let layers =
        match gc with
        | None -> counts
        | Some gc ->
          Option.iter (fun s -> Array.iter (Option.iter (Trace.append s)) op_spans) sink;
          counts
          @ traced_layers times ~gc broker ~counts ~domains:cfg.Broker.domains ~steps
              ~gaps:(Array1.dim gaps) ~gap_sum:(fsum (fun (l : lane) -> l.gap_sum) lanes) ~wall_ns
      in
      {
        setup_ns;
        reopt_ns;
        wall_ns;
        truncated;
        scheduled;
        ok;
        failed;
        sends = int_of_float (List.assoc "session.sent" counts +. List.assoc "session.retries" counts);
        resp;
        gaps;
        digest = digest lanes sessions;
        layers;
      })
