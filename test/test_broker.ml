(* Broker subsystem tests: stable shard routing (unit + properties),
   bounded-ingress shedding for both policies, client backoff and
   give-up, the Equeue ordering discipline the ingress queue relies on,
   and small deterministic end-to-end runs. *)

module B = Podopt_broker
module Packet = Podopt_net.Packet
module Link = Podopt_net.Link
module Runtime = Podopt_eventsys.Runtime
module Equeue = Podopt_eventsys.Equeue

let pkt ~src ~seq = Packet.make ~src ~dst:"broker" ~seq (Bytes.of_string "x")

(* --- shard map -------------------------------------------------------- *)

let test_shard_range () =
  for i = 0 to 99 do
    let id = Printf.sprintf "session-%d" i in
    let s = B.Shard_map.shard_of ~shards:3 id in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 3)
  done

let test_shard_invalid () =
  Alcotest.check_raises "shards = 0"
    (Invalid_argument "Shard_map.shard_of: shards <= 0") (fun () ->
      ignore (B.Shard_map.shard_of ~shards:0 "x"))

let test_shard_spread () =
  let shards = 8 and n = 1000 in
  let buckets = Array.make shards 0 in
  for i = 0 to n - 1 do
    let s = B.Shard_map.shard_of ~shards (Printf.sprintf "s%04d" i) in
    buckets.(s) <- buckets.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (c > n / shards / 2 && c < n * 2 / shards))
    buckets

let prop_shard_stable =
  QCheck2.Test.make ~name:"same session id always maps to the same shard"
    ~count:500
    QCheck2.Gen.(pair string_printable (int_range 1 16))
    (fun (id, shards) ->
      let a = B.Shard_map.shard_of ~shards id in
      let b = B.Shard_map.shard_of ~shards id in
      a = b && a >= 0 && a < shards)

(* --- the Equeue discipline the ingress queue rides on ----------------- *)

let prop_remove_if_order =
  (* survivors of [remove_if] must keep their (due, raise-order) rank
     even when more items are pushed afterwards: the popped stream
     equals a stable sort by due time of survivors-then-late-pushes *)
  QCheck2.Test.make
    ~name:"remove_if preserves equal-due raise order under later pushes"
    ~count:500
    QCheck2.Gen.(
      pair
        (small_list (pair (int_range 0 4) (int_range 0 30)))
        (small_list (pair (int_range 0 4) (int_range 0 30))))
    (fun (first, second) ->
      let q = Equeue.create () in
      List.iter (fun (due, tag) -> Equeue.push q ~due tag) first;
      let removed = Equeue.remove_if q (fun tag -> tag mod 3 = 0) in
      let kept = List.filter (fun (_, tag) -> tag mod 3 <> 0) first in
      List.iter (fun (due, tag) -> Equeue.push q ~due tag) second;
      let expected =
        List.stable_sort
          (fun (d1, _) (d2, _) -> compare d1 d2)
          (kept @ second)
      in
      let rec drain acc =
        match Equeue.pop q with
        | Some (due, tag) -> drain ((due, tag) :: acc)
        | None -> List.rev acc
      in
      removed = List.length first - List.length kept && drain [] = expected)

(* --- bounded ingress -------------------------------------------------- *)

let drain_seqs ing ~max =
  List.map (fun p -> p.Packet.seq) (B.Ingress.drain ing ~max)

let test_ingress_drop_newest () =
  let ing = B.Ingress.create ~limit:2 ~policy:B.Policy.Drop_newest in
  (match B.Ingress.offer ing ~now:0 (pkt ~src:"a" ~seq:0) with
  | B.Ingress.Accepted -> ()
  | B.Ingress.Shed _ -> Alcotest.fail "first offer shed");
  ignore (B.Ingress.offer ing ~now:1 (pkt ~src:"a" ~seq:1));
  (match B.Ingress.offer ing ~now:2 (pkt ~src:"a" ~seq:2) with
  | B.Ingress.Shed victim ->
    Alcotest.(check int) "arrival is the victim" 2 victim.Packet.seq
  | B.Ingress.Accepted -> Alcotest.fail "over-limit offer accepted");
  let st = B.Ingress.stats ing in
  Alcotest.(check int) "offered" 3 st.B.Ingress.offered;
  Alcotest.(check int) "accepted" 2 st.B.Ingress.accepted;
  Alcotest.(check int) "shed" 1 st.B.Ingress.shed;
  Alcotest.(check int) "high water" 2 st.B.Ingress.high_water;
  Alcotest.(check (list int)) "FIFO drain" [ 0; 1 ] (drain_seqs ing ~max:10)

let test_ingress_drop_oldest () =
  let ing = B.Ingress.create ~limit:2 ~policy:B.Policy.Drop_oldest in
  ignore (B.Ingress.offer ing ~now:0 (pkt ~src:"a" ~seq:0));
  ignore (B.Ingress.offer ing ~now:1 (pkt ~src:"a" ~seq:1));
  (match B.Ingress.offer ing ~now:2 (pkt ~src:"a" ~seq:2) with
  | B.Ingress.Shed victim ->
    Alcotest.(check int) "head is the victim" 0 victim.Packet.seq
  | B.Ingress.Accepted -> Alcotest.fail "over-limit offer accepted");
  Alcotest.(check (list int))
    "arrival took the evicted slot" [ 1; 2 ] (drain_seqs ing ~max:10)

let test_ingress_drop_oldest_accounting () =
  (* regression: Drop_oldest used to charge the eviction to [shed] as
     if the arrival had been rejected, so [accepted] undercounted and
     offered <> accepted + shed.  The arrival IS accepted — the queue
     victim is tracked separately as [displaced]. *)
  let ing = B.Ingress.create ~limit:2 ~policy:B.Policy.Drop_oldest in
  for seq = 0 to 4 do
    ignore (B.Ingress.offer ing ~now:seq (pkt ~src:"a" ~seq))
  done;
  let st = B.Ingress.stats ing in
  Alcotest.(check int) "offered" 5 st.B.Ingress.offered;
  Alcotest.(check int) "every arrival accepted" 5 st.B.Ingress.accepted;
  Alcotest.(check int) "nothing shed at the door" 0 st.B.Ingress.shed;
  Alcotest.(check int) "three head victims displaced" 3 st.B.Ingress.displaced;
  Alcotest.(check int) "partition invariant"
    st.B.Ingress.offered (st.B.Ingress.accepted + st.B.Ingress.shed);
  Alcotest.(check (list int)) "newest two survive" [ 3; 4 ]
    (drain_seqs ing ~max:10);
  (* Drop_newest rejects at the door instead: shed moves, displaced
     stays zero, and the partition still holds *)
  let ing = B.Ingress.create ~limit:2 ~policy:B.Policy.Drop_newest in
  for seq = 0 to 4 do
    ignore (B.Ingress.offer ing ~now:seq (pkt ~src:"a" ~seq))
  done;
  let st = B.Ingress.stats ing in
  Alcotest.(check int) "drop-newest: accepted" 2 st.B.Ingress.accepted;
  Alcotest.(check int) "drop-newest: shed" 3 st.B.Ingress.shed;
  Alcotest.(check int) "drop-newest: displaced" 0 st.B.Ingress.displaced;
  Alcotest.(check int) "drop-newest: partition invariant"
    st.B.Ingress.offered (st.B.Ingress.accepted + st.B.Ingress.shed)

let test_ingress_batch_bound () =
  let ing = B.Ingress.create ~limit:10 ~policy:B.Policy.Drop_newest in
  for seq = 0 to 4 do
    ignore (B.Ingress.offer ing ~now:seq (pkt ~src:"a" ~seq))
  done;
  Alcotest.(check (list int)) "first batch" [ 0; 1 ] (drain_seqs ing ~max:2);
  Alcotest.(check (list int)) "rest" [ 2; 3; 4 ] (drain_seqs ing ~max:10);
  Alcotest.(check int) "empty" 0 (B.Ingress.length ing)

(* --- backoff ---------------------------------------------------------- *)

let test_backoff_delay () =
  let b = B.Policy.default_backoff in
  Alcotest.(check int) "attempt 1" 100 (B.Policy.delay b ~attempt:1);
  Alcotest.(check int) "attempt 2" 200 (B.Policy.delay b ~attempt:2);
  Alcotest.(check int) "attempt 5" 1_600 (B.Policy.delay b ~attempt:5);
  Alcotest.(check int) "attempt 6 capped" 2_000 (B.Policy.delay b ~attempt:6);
  Alcotest.(check int) "attempt 9 capped" 2_000 (B.Policy.delay b ~attempt:9)

let test_session_give_up () =
  let rt = Runtime.create () in
  let link = Link.create ~latency:10 ~seed:5L () in
  let backoff = { B.Policy.base = 10; factor = 2; cap = 40; max_retries = 2 } in
  let s =
    B.Session.create ~id:"s000" ~link
      ~ops:[| Bytes.of_string "op" |]
      ~start:0 ~interval:100 ~backoff ()
  in
  B.Session.pump s ~now:0 ~rt ~deliver_event:(Link.raise_timed "Drop");
  let st = B.Session.stats s in
  Alcotest.(check int) "one first send" 1 st.B.Session.sent;
  B.Session.nack s ~seq:0 ~now:20;
  Alcotest.(check bool) "retry pending" false (B.Session.finished s);
  B.Session.pump s ~now:40 ~rt ~deliver_event:(Link.raise_timed "Drop");
  B.Session.nack s ~seq:0 ~now:60;
  B.Session.pump s ~now:120 ~rt ~deliver_event:(Link.raise_timed "Drop");
  B.Session.nack s ~seq:0 ~now:140;
  Alcotest.(check int) "nacks" 3 st.B.Session.nacks;
  Alcotest.(check int) "retries" 2 st.B.Session.retries;
  Alcotest.(check int) "gave up past max_retries" 1 st.B.Session.gave_up;
  Alcotest.(check bool) "finished after giving up" true (B.Session.finished s)

(* --- end-to-end runs -------------------------------------------------- *)

let small_profile =
  {
    B.Loadgen.sessions = 4;
    ops = 4;
    interval = 120;
    spread = 31;
    latency = 50;
    jitter = 0;
  }

(* 12 warm-up ops per session: even a shard owning a single session
   accumulates more chain occurrences than the adaptive threshold (10),
   so force_reoptimize installs super-handlers on every shard *)
let steady_summary ?(shards = 2) ?(optimize = true) ?(warmup_ops = 12) () =
  let cfg = { B.Broker.default_config with shards; optimize; seed = 7L } in
  B.Loadgen.steady ~warmup_ops (B.Broker.create cfg) small_profile

let test_truncated_flag () =
  (* regression: [Loadgen.run] silently stopped at [max_ticks], reporting
     an unfinished run as if it had completed; the summary must carry a
     [truncated] flag *)
  let cfg = { B.Broker.default_config with shards = 2; optimize = false; seed = 7L } in
  let broker = B.Broker.create cfg in
  let s =
    Fun.protect
      ~finally:(fun () -> B.Broker.shutdown broker)
      (fun () ->
        let sessions = B.Loadgen.make_sessions broker small_profile in
        B.Loadgen.run ~max_ticks:1 broker sessions)
  in
  Alcotest.(check bool) "tick-budget run is flagged" true s.B.Loadgen.truncated;
  Alcotest.(check bool) "and did not finish" true (s.B.Loadgen.sent < 16);
  let full = steady_summary () in
  Alcotest.(check bool) "completed run is not flagged" false
    full.B.Loadgen.truncated

let test_run_completes () =
  let s = steady_summary () in
  Alcotest.(check int) "all ops sent" 16 s.B.Loadgen.sent;
  Alcotest.(check int) "all ops dispatched" 16 s.B.Loadgen.dispatched;
  Alcotest.(check int) "nothing shed" 0 s.B.Loadgen.shed;
  Alcotest.(check int) "nothing abandoned" 0 s.B.Loadgen.gave_up

let test_run_optimized_path () =
  let s = steady_summary () in
  Alcotest.(check bool)
    (Printf.sprintf "steady phase rides the optimized path (%.1f%%)"
       (B.Loadgen.opt_pct s))
    true
    (B.Loadgen.opt_pct s >= 90.0);
  let g = steady_summary ~optimize:false () in
  Alcotest.(check int) "generic broker never optimizes" 0 g.B.Loadgen.optimized;
  Alcotest.(check int) "same work either way" s.B.Loadgen.dispatched
    g.B.Loadgen.dispatched

let test_run_deterministic () =
  let a = steady_summary () and b = steady_summary () in
  Alcotest.(check bool) "identical summaries" true (a = b)

let test_overload_sheds () =
  let cfg =
    {
      B.Broker.default_config with
      shards = 1;
      batch = 1;
      queue_limit = 2;
      policy = B.Policy.Drop_oldest;
      seed = 7L;
    }
  in
  let profile =
    { B.Loadgen.sessions = 6; ops = 6; interval = 60; spread = 11;
      latency = 50; jitter = 0 }
  in
  let s = B.Loadgen.steady ~warmup_ops:0 (B.Broker.create cfg) profile in
  (* Drop_oldest accepts every arrival and evicts queue heads: the
     overload pressure shows up as displacements, never door-sheds *)
  Alcotest.(check bool) "overload displaces" true (s.B.Loadgen.displaced > 0);
  Alcotest.(check int) "drop-oldest never sheds at the door" 0
    s.B.Loadgen.shed;
  Alcotest.(check bool) "clients retry" true (s.B.Loadgen.retries > 0);
  Alcotest.(check int) "every op dispatched or abandoned"
    s.B.Loadgen.sent
    (s.B.Loadgen.dispatched + s.B.Loadgen.gave_up)

let test_video_run () =
  let cfg =
    { B.Broker.default_config with kind = B.Workload.Video; seed = 7L }
  in
  let profile =
    { small_profile with B.Loadgen.sessions = 2; ops = 3; interval = 400 }
  in
  let s = B.Loadgen.steady ~warmup_ops:2 (B.Broker.create cfg) profile in
  Alcotest.(check int) "all frames dispatched" 6 s.B.Loadgen.dispatched;
  Alcotest.(check bool) "video work costs time" true (s.B.Loadgen.busy > 0)

let test_sessions_stick_to_shards () =
  let cfg = { B.Broker.default_config with shards = 4; seed = 7L } in
  let broker = B.Broker.create cfg in
  let profile = { small_profile with B.Loadgen.sessions = 8 } in
  ignore (B.Loadgen.steady ~warmup_ops:2 broker profile);
  let per_shard =
    Array.map (fun s -> s.B.Shard.sessions) (B.Broker.shards broker)
  in
  Alcotest.(check int) "every session counted once" 8
    (Array.fold_left ( + ) 0 per_shard);
  Array.iteri
    (fun i shard ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d dispatched only its own sessions" i)
        shard.B.Shard.stats.B.Shard.dispatched
        (shard.B.Shard.sessions * profile.B.Loadgen.ops))
    (B.Broker.shards broker)

(* an idle shard has optimized nothing: 0 optimized + 0 generic must
   read as 0%% (and "-" in the table), never as 100%% optimized *)
let test_idle_shard_is_not_optimized () =
  let cfg = { B.Broker.default_config with shards = 2; seed = 7L } in
  let broker = B.Broker.create cfg in
  (* one session on two shards: exactly one shard stays idle *)
  let profile = { small_profile with B.Loadgen.sessions = 1 } in
  let s = B.Loadgen.steady ~warmup_ops:0 broker profile in
  let zero = { s with B.Loadgen.optimized = 0; generic = 0 } in
  Alcotest.(check (float 0.0)) "opt_pct of nothing is 0" 0.0
    (B.Loadgen.opt_pct zero);
  let idle =
    Array.to_list (B.Broker.shards broker)
    |> List.filter (fun sh -> sh.B.Shard.stats.B.Shard.dispatched = 0)
  in
  Alcotest.(check int) "one shard idle" 1 (List.length idle);
  let table = Fmt.str "%a" B.Report.pp_table broker in
  Alcotest.(check bool) "idle row prints - not a percentage" true
    (Astring_contains.contains table "     -")

(* The front door pops wires in (due, push order), and draws each wire
   fault once per wire, drop before corrupt. *)
let test_front_door_order () =
  let faults =
    match Podopt_faults.Plan.of_string "seed=3,drop=1,corrupt=1" with
    | Ok spec -> spec
    | Error e -> failwith e
  in
  let cfg = { B.Broker.default_config with shards = 1; faults; seed = 7L } in
  let broker = B.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      let draws = ref [] in
      B.Broker.set_fault_logger broker
        (Some
           (fun ~salt ~kind ~fired:_ ->
             if salt = 0 then draws := kind :: !draws));
      let front = B.Broker.front broker in
      List.iteri
        (fun seq delay ->
          B.Broker.deliver_event front ~delay
            (Packet.encode (pkt ~src:"s000" ~seq)))
        [ 10; 5; 10; 5 ];
      Alcotest.(check bool) "wires in flight" false (B.Broker.idle broker);
      B.Broker.pump broker ~until:(B.Broker.now broker + 10);
      let shard = (B.Broker.shards broker).(0) in
      Alcotest.(check (list int))
        "ingress in (due, push order)" [ 1; 3; 0; 2 ]
        (List.map
           (fun (_, p) -> p.Packet.seq)
           (B.Ingress.to_list shard.B.Shard.ingress));
      Alcotest.(check (list string))
        "drop, then corrupt, once per wire"
        (List.concat (List.init 4 (fun _ -> [ "drop"; "corrupt" ])))
        (List.rev !draws))

let suite =
  [
    Alcotest.test_case "shard_of stays in range" `Quick test_shard_range;
    Alcotest.test_case "shard_of rejects shards<=0" `Quick test_shard_invalid;
    Alcotest.test_case "shard_of spreads near-uniformly" `Quick
      test_shard_spread;
    Alcotest.test_case "ingress drop-newest" `Quick test_ingress_drop_newest;
    Alcotest.test_case "ingress drop-oldest" `Quick test_ingress_drop_oldest;
    Alcotest.test_case "ingress drop-oldest accounting" `Quick
      test_ingress_drop_oldest_accounting;
    Alcotest.test_case "ingress batch drain" `Quick test_ingress_batch_bound;
    Alcotest.test_case "backoff delays" `Quick test_backoff_delay;
    Alcotest.test_case "session retries then gives up" `Quick
      test_session_give_up;
    Alcotest.test_case "truncated run is flagged" `Quick test_truncated_flag;
    Alcotest.test_case "steady run completes" `Quick test_run_completes;
    Alcotest.test_case "steady run is optimized" `Quick test_run_optimized_path;
    Alcotest.test_case "runs are deterministic" `Quick test_run_deterministic;
    Alcotest.test_case "overload sheds without crashing" `Quick
      test_overload_sheds;
    Alcotest.test_case "video workload runs" `Quick test_video_run;
    Alcotest.test_case "sessions stick to their shard" `Quick
      test_sessions_stick_to_shards;
    Alcotest.test_case "idle shard is not 100% optimized" `Quick
      test_idle_shard_is_not_optimized;
    Alcotest.test_case "front door order and fault draws" `Quick
      test_front_door_order;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_shard_stable; prop_remove_if_order ]
