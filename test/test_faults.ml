(* Robustness layer tests: fault-plan parsing and stream independence,
   handler-failure isolation with retry + dead-letter quarantine, the
   optimizer circuit breaker (unit and at shard level: trip, cool-down,
   re-optimize), and end-to-end faulty runs — which must stay
   byte-identical across domain counts like clean ones. *)

module B = Podopt_broker
module Plan = Podopt_faults.Plan
module Breaker = Podopt_optimize.Breaker
module Packet = Podopt_net.Packet
module Runtime = Podopt_eventsys.Runtime

(* --- fault plan: grammar ------------------------------------------------ *)

let spec_of s =
  match Plan.of_string s with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "of_string %S: %s" s msg

let test_plan_parse () =
  let s = spec_of "seed=7,crash=200,spike=50:4000,corrupt=20,drop=5" in
  Alcotest.(check int64) "seed" 7L s.Plan.seed;
  Alcotest.(check int) "crash" 200 s.Plan.crash_permille;
  Alcotest.(check int) "spike" 50 s.Plan.spike_permille;
  Alcotest.(check int) "spike cost" 4000 s.Plan.spike_cost;
  Alcotest.(check int) "corrupt" 20 s.Plan.corrupt_permille;
  Alcotest.(check int) "drop" 5 s.Plan.drop_permille;
  Alcotest.(check bool) "enabled" true (Plan.enabled s);
  Alcotest.(check bool) "empty is none" false (Plan.enabled (spec_of ""));
  Alcotest.(check bool) "'none' is none" false (Plan.enabled (spec_of "none"))

let test_plan_roundtrip () =
  let s = spec_of "seed=9,crash=150,spike=30:2500,drop=12" in
  Alcotest.(check bool) "to_string round-trips" true
    (spec_of (Plan.to_string s) = s);
  Alcotest.(check string) "none prints none" "none" (Plan.to_string Plan.none)

let test_plan_kill () =
  let s = spec_of "seed=3,kill=150" in
  Alcotest.(check int) "kill rate parses" 150 s.Plan.kill_permille;
  Alcotest.(check bool) "kill alone enables the plan" true (Plan.enabled s);
  Alcotest.(check bool) "kill round-trips" true (spec_of (Plan.to_string s) = s);
  Alcotest.(check int) "kill defaults to 0" 0 Plan.none.Plan.kill_permille

let test_plan_errors () =
  let rejects s =
    match Plan.of_string s with
    | Ok _ -> Alcotest.failf "of_string %S should fail" s
    | Error _ -> ()
  in
  rejects "crash=2000";        (* permille out of range *)
  rejects "crash=-1";
  rejects "crash=abc";
  rejects "bogus=1";           (* unknown key *)
  rejects "crash";             (* missing '=' *)
  rejects "spike=10:0";        (* non-positive spike cost *)
  rejects "seed=xyz";
  rejects "kill=2000";         (* kill obeys the permille range too *)
  rejects "crash=10,crash=20"; (* duplicate key: no silent last-win *)
  rejects "kill=10,kill=10";   (* duplicate even when the values agree *)
  rejects "crash=10,,drop=5";  (* empty field *)
  rejects "crash=10,";         (* trailing comma *)
  rejects ",crash=10";         (* leading comma *)
  rejects "=5";                (* empty key *)
  rejects "crash="             (* empty value *)

(* --- fault plan: streams ------------------------------------------------ *)

let crash_seq spec ~salt n =
  let inj = Plan.create ~salt spec in
  List.init n (fun _ -> Plan.crash inj)

let test_plan_deterministic () =
  let spec = spec_of "seed=3,crash=300" in
  Alcotest.(check (list bool))
    "same spec and salt replay the same decisions"
    (crash_seq spec ~salt:1 64) (crash_seq spec ~salt:1 64);
  Alcotest.(check bool)
    "different salts draw different streams" true
    (crash_seq spec ~salt:1 64 <> crash_seq spec ~salt:2 64)

let test_plan_stream_independence () =
  (* raising the drop rate must not shift the crash decision sequence:
     each kind owns an independent PRNG stream *)
  let a = spec_of "seed=3,crash=300" in
  let b = spec_of "seed=3,crash=300,drop=500,spike=200,corrupt=400" in
  let drain spec n =
    let inj = Plan.create ~salt:1 spec in
    List.init n (fun _ ->
        (* interleave the other kinds like a real run would *)
        ignore (Plan.drop inj);
        ignore (Plan.spike inj);
        ignore (Plan.corrupt inj (Bytes.of_string "payload"));
        Plan.crash inj)
  in
  Alcotest.(check (list bool))
    "crash stream identical with other rates changed"
    (drain a 64) (drain b 64)

let test_plan_corrupt () =
  let spec = spec_of "seed=5,corrupt=1000" in
  let inj = Plan.create ~salt:1 spec in
  let original = Bytes.of_string "hello wire bytes" in
  let pristine = Bytes.copy original in
  (match Plan.corrupt inj original with
  | None -> Alcotest.fail "corrupt=1000 must fire"
  | Some b' ->
    Alcotest.(check bool) "input not mutated" true (original = pristine);
    Alcotest.(check int) "same length" (Bytes.length original) (Bytes.length b');
    let diffs = ref 0 in
    Bytes.iteri
      (fun i c -> if c <> Bytes.get b' i then incr diffs)
      original;
    Alcotest.(check int) "exactly one byte flipped" 1 !diffs);
  let off = Plan.create ~salt:1 (spec_of "seed=5") in
  Alcotest.(check bool) "corrupt=0 never fires" true
    (Plan.corrupt off original = None)

(* --- shard: isolation, retry, quarantine -------------------------------- *)

let mk_shard ?faults ?max_failures ?dead_limit ?breaker ~optimize () =
  B.Shard.create ?faults ?max_failures ?dead_limit ?breaker ~id:0
    ~kind:B.Workload.Seccomm ~optimize ~queue_limit:256
    ~policy:B.Policy.Drop_newest ()

let offer_ops sh ~first ~count =
  for seq = first to first + count - 1 do
    let payload = B.Workload.op_payload B.Workload.Seccomm ~session:0 ~seq in
    let p = Packet.make ~src:"s000" ~dst:"broker" ~seq payload in
    match B.Shard.offer sh ~now:seq p with
    | B.Ingress.Accepted -> ()
    | B.Ingress.Shed _ -> Alcotest.fail "test queue overflow"
  done

let drain_all sh =
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    let n = B.Shard.drain_batch sh ~now:0 ~batch:16 in
    total := !total + n;
    if n = 0 then continue := false
  done;
  !total

let test_quarantine_after_k_failures () =
  let faults = spec_of "seed=11,crash=1000" in
  let sh = mk_shard ~faults ~max_failures:3 ~dead_limit:2 ~optimize:false () in
  offer_ops sh ~first:0 ~count:3;
  ignore (drain_all sh);
  (* every attempt crashes: 3 ops x 3 consecutive failures, then
     quarantine; the dead queue holds 2, the third eviction drops the
     oldest *)
  Alcotest.(check int) "failures" 9 sh.B.Shard.stats.B.Shard.failures;
  Alcotest.(check int) "requeued" 6 sh.B.Shard.stats.B.Shard.requeued;
  Alcotest.(check int) "quarantined" 3 sh.B.Shard.stats.B.Shard.quarantined;
  Alcotest.(check int) "dead queue bounded" 2
    (List.length (B.Shard.dead_letters sh));
  Alcotest.(check int) "oldest dead dropped" 1
    sh.B.Shard.stats.B.Shard.dead_dropped;
  Alcotest.(check int) "nothing dispatched" 0
    sh.B.Shard.stats.B.Shard.dispatched;
  let snap = B.Shard.snapshot sh in
  Alcotest.(check int) "snapshot failures" 9 snap.B.Shard.snap_handler_failures;
  Alcotest.(check int) "snapshot quarantined" 3 snap.B.Shard.snap_quarantined

let test_redrain_dead () =
  let faults = spec_of "seed=11,crash=1000" in
  let sh = mk_shard ~faults ~max_failures:2 ~dead_limit:8 ~optimize:false () in
  offer_ops sh ~first:0 ~count:2;
  ignore (drain_all sh);
  Alcotest.(check int) "both ops quarantined" 2
    (List.length (B.Shard.dead_letters sh));
  (* heal the shard, put the dead letters back, and they dispatch *)
  B.Shard.set_faults sh None;
  Alcotest.(check int) "redrain count" 2 (B.Shard.redrain_dead sh);
  Alcotest.(check int) "dead queue empty" 0
    (List.length (B.Shard.dead_letters sh));
  ignore (drain_all sh);
  Alcotest.(check int) "redrained ops dispatch" 2
    sh.B.Shard.stats.B.Shard.dispatched

let test_success_resets_consecutive_count () =
  (* crash ~50%: ops fail and succeed interleaved; a success resets the
     consecutive count, so with max_failures 3 nothing should quarantine
     at this rate while everything eventually dispatches *)
  let faults = spec_of "seed=4,crash=400" in
  let sh = mk_shard ~faults ~max_failures:4 ~optimize:false () in
  offer_ops sh ~first:0 ~count:12;
  ignore (drain_all sh);
  Alcotest.(check int) "all ops eventually dispatched" 12
    sh.B.Shard.stats.B.Shard.dispatched;
  Alcotest.(check bool) "some attempts failed" true
    (sh.B.Shard.stats.B.Shard.failures > 0);
  Alcotest.(check int) "none quarantined" 0
    sh.B.Shard.stats.B.Shard.quarantined

(* Fatal conditions are never isolated: a handler raising
   Stack_overflow must unwind the drain loop (and the whole process),
   not be counted as one more retryable handler failure. *)
let test_fatal_exn_not_isolated () =
  let module H = Podopt_eventsys.Handler in
  let rt = Runtime.create () in
  rt.Runtime.isolate_failures <- true;
  Runtime.bind rt ~event:"Boom" (H.native "boom" (fun _ _ -> raise Stack_overflow));
  Alcotest.check_raises "Stack_overflow propagates through isolation"
    Stack_overflow (fun () -> Runtime.raise_sync rt "Boom" []);
  (* ordinary exceptions stay isolated and counted *)
  Runtime.bind rt ~event:"Oops" (H.native "oops" (fun _ _ -> failwith "x"));
  Runtime.raise_sync rt "Oops" [];
  Alcotest.(check int) "ordinary failure isolated" 1
    rt.Runtime.stats.Runtime.handler_failures;
  (* and the same boundary holds at the shard: dispatch_one must not
     convert a fatal condition into a quarantine-bound failure *)
  let sh = mk_shard ~optimize:false () in
  Runtime.bind sh.B.Shard.rt ~event:"SecPush"
    (H.native "boom" (fun _ _ -> raise Stack_overflow));
  offer_ops sh ~first:0 ~count:1;
  Alcotest.check_raises "shard drain re-raises fatal" Stack_overflow (fun () ->
      ignore (B.Shard.drain_batch sh ~now:0 ~batch:16));
  Alcotest.(check int) "no failure counted" 0 sh.B.Shard.stats.B.Shard.failures

(* reset_measurements is the warm-up/steady boundary: it must also
   clear the consecutive-failure table and the dead queue, or warm-up
   failures leak into steady-phase quarantine decisions. *)
let test_reset_clears_retry_state () =
  let faults = spec_of "seed=11,crash=1000" in
  let sh = mk_shard ~faults ~max_failures:3 ~dead_limit:8 ~optimize:false () in
  offer_ops sh ~first:0 ~count:1;
  (* two consecutive failures, one short of quarantine *)
  ignore (B.Shard.drain_batch sh ~now:0 ~batch:16);
  ignore (B.Shard.drain_batch sh ~now:0 ~batch:16);
  Alcotest.(check int) "two failures so far" 2 sh.B.Shard.stats.B.Shard.failures;
  B.Shard.reset_measurements sh;
  (* the count restarted from zero: one more failure must NOT quarantine *)
  ignore (B.Shard.drain_batch sh ~now:0 ~batch:16);
  Alcotest.(check int) "post-reset failure is consecutive #1" 1
    sh.B.Shard.stats.B.Shard.failures;
  Alcotest.(check int) "not quarantined" 0 sh.B.Shard.stats.B.Shard.quarantined;
  (* two more make three consecutive since the reset: now it goes *)
  ignore (B.Shard.drain_batch sh ~now:0 ~batch:16);
  ignore (B.Shard.drain_batch sh ~now:0 ~batch:16);
  Alcotest.(check int) "quarantined on the third post-reset failure" 1
    sh.B.Shard.stats.B.Shard.quarantined;
  Alcotest.(check int) "dead queue holds it" 1
    (List.length (B.Shard.dead_letters sh));
  (* and the dead queue itself is part of the measured state *)
  B.Shard.reset_measurements sh;
  Alcotest.(check int) "reset clears the dead queue" 0
    (List.length (B.Shard.dead_letters sh));
  let snap = B.Shard.snapshot sh in
  Alcotest.(check int) "snapshot quarantine counter also reset" 0
    snap.B.Shard.snap_quarantined;
  Alcotest.(check Alcotest.(triple int int int))
    "snapshot latency dists reset"
    (0, 0, 0)
    ( snap.B.Shard.snap_queue_wait.Podopt_obs.Hist.max,
      snap.B.Shard.snap_service_opt.Podopt_obs.Hist.max,
      snap.B.Shard.snap_service_gen.Podopt_obs.Hist.max )

(* steady resets after warm-up: with always-crash faults the steady
   phase must account from zero, so sent = dispatched + quarantined
   closes over steady-phase numbers only *)
let test_steady_reset_with_faults () =
  let faults = spec_of "seed=7,crash=200" in
  let cfg =
    {
      B.Broker.default_config with
      shards = 2;
      optimize = false;
      queue_limit = 256;
      seed = 11L;
      faults;
    }
  in
  let profile =
    {
      B.Loadgen.default_profile with
      B.Loadgen.sessions = 6;
      ops = 8;
      interval = 120;
      spread = 31;
    }
  in
  let s = (Helpers.serve ~warmup_ops:6 cfg profile).Helpers.summary in
  Alcotest.(check int) "steady accounting closes" s.B.Loadgen.sent
    (s.B.Loadgen.dispatched + s.B.Loadgen.quarantined)

(* requeue is admission-free by design; the overflow counter is how a
   retry storm that grows a "bounded" queue past its limit shows up *)
let test_requeue_overflow_counted () =
  let ing = B.Ingress.create ~limit:2 ~policy:B.Policy.Drop_newest in
  let pkt seq =
    Packet.make ~src:"s000" ~dst:"broker" ~seq
      (B.Workload.op_payload B.Workload.Seccomm ~session:0 ~seq)
  in
  (match B.Ingress.offer ing ~now:0 (pkt 0) with
  | B.Ingress.Accepted -> ()
  | B.Ingress.Shed _ -> Alcotest.fail "first offer shed");
  B.Ingress.requeue ing ~due:10 (pkt 1);
  let st = B.Ingress.stats ing in
  Alcotest.(check int) "requeued counted" 1 st.B.Ingress.requeued;
  Alcotest.(check int) "no overflow below the limit" 0
    st.B.Ingress.requeue_overflow;
  (* queue is now at the limit (2): the next requeue is still accepted
     but grows the queue past its bound and is counted as overflow *)
  B.Ingress.requeue ing ~due:11 (pkt 2);
  let st = B.Ingress.stats ing in
  Alcotest.(check int) "requeue never shed" 2 st.B.Ingress.requeued;
  Alcotest.(check int) "overflow counted" 1 st.B.Ingress.requeue_overflow;
  Alcotest.(check int) "queue grew past its limit" 3 (B.Ingress.length ing);
  Alcotest.(check int) "offered untouched by requeues" 1 st.B.Ingress.offered

(* --- breaker: unit ------------------------------------------------------ *)

let test_breaker_trip_cycle () =
  let b =
    Breaker.create
      ~policy:{ Breaker.window = 2; trip_permille = 500; min_events = 4;
                cooldown = 2 }
      ()
  in
  Alcotest.(check bool) "starts closed" false (Breaker.is_open b);
  (match Breaker.observe b ~events:4 ~faults:0 with
  | Breaker.Ok -> ()
  | _ -> Alcotest.fail "clean batch must be Ok");
  (match Breaker.observe b ~events:4 ~faults:4 with
  | Breaker.Tripped -> ()
  | _ -> Alcotest.fail "4/8 faults at 500 permille must trip");
  Alcotest.(check bool) "open after trip" true (Breaker.is_open b);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  (match Breaker.observe b ~events:4 ~faults:0 with
  | Breaker.Cooling -> ()
  | _ -> Alcotest.fail "first cool-down batch must be Cooling");
  (match Breaker.observe b ~events:4 ~faults:0 with
  | Breaker.Recovered -> ()
  | _ -> Alcotest.fail "cool-down expiry must be Recovered");
  Alcotest.(check bool) "closed again" false (Breaker.is_open b);
  (* the window restarted empty: pre-trip faults are forgotten *)
  (match Breaker.observe b ~events:4 ~faults:0 with
  | Breaker.Ok -> ()
  | _ -> Alcotest.fail "post-recovery clean batch must be Ok")

let test_breaker_min_events_gate () =
  let b =
    Breaker.create
      ~policy:{ Breaker.window = 4; trip_permille = 100; min_events = 16;
                cooldown = 1 }
      ()
  in
  (* 100% faulty but only 2 events: too little evidence to trip *)
  (match Breaker.observe b ~events:2 ~faults:2 with
  | Breaker.Ok -> ()
  | _ -> Alcotest.fail "below min_events must not trip");
  Alcotest.(check bool) "still closed" false (Breaker.is_open b)

let test_breaker_invalid_policy () =
  let bad policy = fun () -> ignore (Breaker.create ~policy ()) in
  Alcotest.check_raises "window <= 0"
    (Invalid_argument "Breaker.create: window <= 0")
    (bad { Breaker.default_policy with Breaker.window = 0 });
  Alcotest.check_raises "cooldown < 1"
    (Invalid_argument "Breaker.create: cooldown < 1")
    (bad { Breaker.default_policy with Breaker.cooldown = 0 });
  Alcotest.check_raises "min_events < 0"
    (Invalid_argument "Breaker.create: min_events < 0")
    (bad { Breaker.default_policy with Breaker.min_events = -1 })

(* --- breaker: at shard level (trip -> revert -> re-optimize) ------------ *)

let test_breaker_shard_cycle () =
  let breaker =
    { Breaker.window = 2; trip_permille = 400; min_events = 4; cooldown = 2 }
  in
  let sh = mk_shard ~breaker ~optimize:true () in
  (* warm up cleanly until the adaptive controller installs *)
  offer_ops sh ~first:0 ~count:30;
  ignore (drain_all sh);
  if Runtime.optimized_events sh.B.Shard.rt = [] then
    ignore (B.Shard.force_reoptimize sh);
  Alcotest.(check bool) "super-handlers installed" true
    (Runtime.optimized_events sh.B.Shard.rt <> []);
  (* inject certain crashes: the first faulty batch exceeds the trip
     rate, the breaker opens, and the shard provably reverts *)
  B.Shard.set_faults sh (Some (spec_of "seed=11,crash=1000"));
  offer_ops sh ~first:100 ~count:6;
  ignore (B.Shard.drain_batch sh ~now:0 ~batch:16);
  Alcotest.(check bool) "breaker open after faulty batch" true
    (B.Shard.breaker_open sh);
  Alcotest.(check int) "one trip" 1 (B.Shard.breaker_trips sh);
  Alcotest.(check (list int)) "super-handlers uninstalled" []
    (Runtime.optimized_events sh.B.Shard.rt);
  (* heal, serve the cool-down generically, then re-optimize *)
  B.Shard.set_faults sh None;
  let batches = ref 0 in
  offer_ops sh ~first:200 ~count:40;
  while B.Shard.drain_batch sh ~now:0 ~batch:16 > 0 do incr batches done;
  Alcotest.(check bool) "breaker closed after cool-down" false
    (B.Shard.breaker_open sh);
  (* keep serving: the adaptive controller re-installs from the live
     trace once it has re-accumulated past min_trace *)
  let round = ref 0 in
  while Runtime.optimized_events sh.B.Shard.rt = [] && !round < 10 do
    offer_ops sh ~first:(300 + (!round * 50)) ~count:40;
    ignore (drain_all sh);
    incr round
  done;
  Alcotest.(check bool) "re-optimized after recovery" true
    (Runtime.optimized_events sh.B.Shard.rt <> []);
  Alcotest.(check int) "still exactly one trip" 1 (B.Shard.breaker_trips sh)

(* --- end-to-end faulty runs --------------------------------------------- *)

let run_once ?(warmup_ops = 6) ~domains ~faults ~optimize ~shards profile =
  Helpers.serve ~warmup_ops
    {
      B.Broker.default_config with
      B.Broker.shards;
      optimize;
      queue_limit = 256;
      seed = 11L;
      domains;
      faults;
    }
    profile

let profile ~sessions ~ops =
  {
    B.Loadgen.default_profile with
    B.Loadgen.sessions;
    ops;
    interval = 120;
    spread = 31;
  }

let test_e2e_20pct_no_abort () =
  (* 20% crash + spikes: drains never abort, and the op accounting
     closes — every sent op is either dispatched or quarantined (no
     shedding at this queue limit, no wire faults in this plan) *)
  let faults = spec_of "seed=7,crash=200,spike=100:4000" in
  let s =
    (run_once ~domains:1 ~faults ~optimize:true ~shards:2
       (profile ~sessions:8 ~ops:10))
      .Helpers.summary
  in
  Alcotest.(check int) "all ops sent" 80 s.B.Loadgen.sent;
  Alcotest.(check bool) "failures observed" true (s.B.Loadgen.failures > 0);
  Alcotest.(check int) "nothing shed" 0 s.B.Loadgen.shed;
  Alcotest.(check int) "sent = dispatched + quarantined" s.B.Loadgen.sent
    (s.B.Loadgen.dispatched + s.B.Loadgen.quarantined)

let test_e2e_wire_faults_accounted () =
  (* drops and corruption before decode: the front counts every packet
     it loses, so routed + link_dropped + decode_failures = arrivals *)
  let faults = spec_of "seed=7,drop=100,corrupt=100" in
  let s =
    (run_once ~warmup_ops:0 ~domains:1 ~faults ~optimize:false ~shards:2
       (profile ~sessions:6 ~ops:10))
      .Helpers.summary
  in
  Alcotest.(check bool) "some packets dropped" true (s.B.Loadgen.link_dropped > 0);
  Alcotest.(check int) "arrivals all accounted" s.B.Loadgen.sent
    (s.B.Loadgen.routed + s.B.Loadgen.link_dropped + s.B.Loadgen.decode_failures)

let test_e2e_corrupt_seq_dropped () =
  (* the [podopt serve --workload seccomm --faults seed=7,corrupt=50
     --queue-limit 4 --batch 2 --sessions 64] crash: a corrupted header
     whose seq is out of range got shed and nacked, and the retry
     indexed past the session's ops.  The nack is dropped instead, and
     the run completes. *)
  let cfg =
    {
      B.Broker.default_config with
      B.Broker.batch = 2;
      queue_limit = 4;
      faults = spec_of "seed=7,corrupt=50";
    }
  in
  let s =
    (Helpers.serve ~warmup_ops:12 cfg
       { B.Loadgen.default_profile with B.Loadgen.sessions = 64 })
      .Helpers.summary
  in
  Alcotest.(check bool) "headers were corrupted" true
    (s.B.Loadgen.decode_failures > 0);
  Alcotest.(check bool) "ops were shed" true (s.B.Loadgen.shed > 0);
  Alcotest.(check bool) "run completed" false s.B.Loadgen.truncated;
  (* the session-level guard: an out-of-range nack touches no stat and
     schedules no retry *)
  let session =
    B.Session.create ~id:"s000"
      ~link:(Podopt_net.Link.create ~seed:1L ())
      ~ops:[| Bytes.empty; Bytes.empty |]
      ~backoff:B.Policy.default_backoff ()
  in
  List.iter
    (fun seq -> B.Session.nack session ~seq ~now:0)
    [ -1; 2; 4096 ];
  Alcotest.(check int) "no nack counted" 0 (B.Session.stats session).B.Session.nacks;
  Alcotest.(check (option int)) "no retry scheduled" (Some 0)
    (B.Session.next_due session)

let test_e2e_faulty_parallel_deterministic () =
  let faults = spec_of "seed=7,crash=200,spike=100:4000,drop=20,corrupt=20" in
  let run ~domains =
    run_once ~domains ~faults ~optimize:true ~shards:4
      (profile ~sessions:10 ~ops:8)
  in
  let seq = run ~domains:1 in
  Alcotest.(check bool)
    "faulty run actually faults" true
    (seq.Helpers.summary.B.Loadgen.failures > 0);
  Alcotest.(check bool)
    "the breaker tripped" true
    (seq.Helpers.summary.B.Loadgen.breaker_trips > 0);
  List.iter
    (fun domains ->
      let par = run ~domains in
      Alcotest.(check string)
        (Printf.sprintf "faulty snapshots byte-identical at %d domains" domains)
        seq.Helpers.snapshots par.Helpers.snapshots;
      Alcotest.(check bool)
        (Printf.sprintf "faulty summary identical at %d domains" domains)
        true
        (seq.Helpers.summary = par.Helpers.summary))
    [ 2; 3 ]

(* --- policy satellites -------------------------------------------------- *)

let test_policy_attempt_validation () =
  let b = B.Policy.default_backoff in
  Alcotest.check_raises "delay attempt 0"
    (Invalid_argument "Policy.delay: attempt 0 < 1") (fun () ->
      ignore (B.Policy.delay b ~attempt:0));
  Alcotest.check_raises "exhausted attempt 0"
    (Invalid_argument "Policy.exhausted: attempt 0 < 1") (fun () ->
      ignore (B.Policy.exhausted b ~attempt:0));
  Alcotest.(check bool) "attempt 4 not exhausted" false
    (B.Policy.exhausted b ~attempt:4);
  Alcotest.(check bool) "attempt 5 exhausted" true
    (B.Policy.exhausted b ~attempt:5)

let suite =
  [
    Alcotest.test_case "fault plan parses" `Quick test_plan_parse;
    Alcotest.test_case "fault plan round-trips" `Quick test_plan_roundtrip;
    Alcotest.test_case "fault plan rejects bad specs" `Quick test_plan_errors;
    Alcotest.test_case "fault plan parses kill rates" `Quick test_plan_kill;
    Alcotest.test_case "fault streams are deterministic" `Quick
      test_plan_deterministic;
    Alcotest.test_case "fault streams are independent" `Quick
      test_plan_stream_independence;
    Alcotest.test_case "corruption flips one byte of a copy" `Quick
      test_plan_corrupt;
    Alcotest.test_case "K consecutive failures quarantine" `Quick
      test_quarantine_after_k_failures;
    Alcotest.test_case "dead letters re-drain after healing" `Quick
      test_redrain_dead;
    Alcotest.test_case "success resets the consecutive count" `Quick
      test_success_resets_consecutive_count;
    Alcotest.test_case "fatal exceptions are never isolated" `Quick
      test_fatal_exn_not_isolated;
    Alcotest.test_case "reset clears retry and dead state" `Quick
      test_reset_clears_retry_state;
    Alcotest.test_case "steady reset closes faulty accounting" `Quick
      test_steady_reset_with_faults;
    Alcotest.test_case "requeue overflow is counted" `Quick
      test_requeue_overflow_counted;
    Alcotest.test_case "breaker trips, cools, recovers" `Quick
      test_breaker_trip_cycle;
    Alcotest.test_case "breaker needs min_events of evidence" `Quick
      test_breaker_min_events_gate;
    Alcotest.test_case "breaker rejects invalid policies" `Quick
      test_breaker_invalid_policy;
    Alcotest.test_case "shard breaker: trip, revert, re-optimize" `Quick
      test_breaker_shard_cycle;
    Alcotest.test_case "20% faults: no aborts, accounting closes" `Quick
      test_e2e_20pct_no_abort;
    Alcotest.test_case "wire faults are counted, never swallowed" `Quick
      test_e2e_wire_faults_accounted;
    Alcotest.test_case "corrupted out-of-range seqs are dropped, not retried"
      `Quick test_e2e_corrupt_seq_dropped;
    Alcotest.test_case "faulty runs identical across domains" `Quick
      test_e2e_faulty_parallel_deterministic;
    Alcotest.test_case "policy validates attempts" `Quick
      test_policy_attempt_validation;
  ]
