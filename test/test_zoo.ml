(* The open-loop workload zoo: the Arrivals codec and schedule shape,
   the new Xwin / Chat workloads, and the zoo's tentpole invariant —
   observables byte-identical at any domain count for EVERY workload x
   arrivals combination.  Plus the client-accounting regressions that
   rode along: the give-up latch, the computed tick budget, the
   register-replacement pin, and the requeue clock floor. *)

module B = Podopt_broker
module Packet = Podopt_net.Packet
module Link = Podopt_net.Link
module Runtime = Podopt_eventsys.Runtime

(* --- arrivals codec ----------------------------------------------------- *)

let test_arrivals_codec () =
  let ok s spec =
    match B.Arrivals.of_string s with
    | Ok spec' ->
      Alcotest.(check bool) (s ^ " parses") true (spec = spec');
      Alcotest.(check string) (s ^ " round-trips") s
        (B.Arrivals.to_string spec')
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "periodic" B.Arrivals.Periodic;
  ok "uniform" B.Arrivals.Uniform;
  ok "pareto:1.5" (B.Arrivals.Pareto 1.5);
  ok "pareto:2" (B.Arrivals.Pareto 2.0);
  ok "flash:600:8" (B.Arrivals.Flash (600, 8));
  List.iter
    (fun bad ->
      match B.Arrivals.of_string bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error _ -> ())
    [
      "";
      "poisson";
      "pareto";
      "pareto:";
      "pareto:1";    (* alpha must be > 1: the mean diverges at 1 *)
      "pareto:0.5";
      "pareto:nan";
      "pareto:inf";
      "flash";
      "flash:600";
      "flash:0:8";   (* period must be positive *)
      "flash:600:1"; (* a x1 burst is no burst *)
      "flash:600:x";
      "flash:600:8:9";
    ]

let test_schedule_shape () =
  let check_spec spec =
    let name = B.Arrivals.to_string spec in
    let s = B.Arrivals.schedule spec ~seed:7L ~start:500 ~interval:100 ~ops:64 in
    Alcotest.(check int) (name ^ ": one due per op") 64 (Array.length s);
    Alcotest.(check int) (name ^ ": first send at start") 500 s.(0);
    for k = 1 to 63 do
      if s.(k) <= s.(k - 1) then
        Alcotest.failf "%s: dues not strictly increasing at %d (%d <= %d)" name
          k s.(k)
          s.(k - 1)
    done;
    let again =
      B.Arrivals.schedule spec ~seed:7L ~start:500 ~interval:100 ~ops:64
    in
    Alcotest.(check bool) (name ^ ": deterministic per seed") true (s = again)
  in
  List.iter check_spec
    [
      B.Arrivals.Periodic;
      B.Arrivals.Uniform;
      B.Arrivals.Pareto 1.5;
      B.Arrivals.Flash (400, 6);
    ];
  (* a flash burst really compresses the gaps inside the crowd window *)
  let f = B.Arrivals.schedule (B.Arrivals.Flash (400, 8)) ~seed:7L ~start:0
      ~interval:100 ~ops:8
  in
  Alcotest.(check bool) "burst gap is interval/MULT" true (f.(1) - f.(0) < 100);
  Alcotest.(check int) "empty schedule" 0
    (Array.length (B.Arrivals.schedule B.Arrivals.Uniform ~seed:7L ~start:0
                     ~interval:100 ~ops:0))

(* --- the new workloads -------------------------------------------------- *)

let test_chat_fanout () =
  let rt = Podopt_apps.Chat_room.create () in
  let msg = Podopt_apps.Chat_room.message ~fanout:5 ~size:64 3 in
  Podopt_apps.Chat_room.push rt msg;
  Alcotest.(check int) "one message received" 1
    (Podopt_apps.Chat_room.received rt);
  Alcotest.(check int) "fanned out to 5 deliveries" 5
    (Podopt_apps.Chat_room.delivered rt);
  Podopt_apps.Chat_room.push rt (Podopt_apps.Chat_room.message ~fanout:2 ~size:64 4);
  Alcotest.(check int) "amplification accumulates" 7
    (Podopt_apps.Chat_room.delivered rt)

let test_xwin_payload_paths () =
  (* the payload codec keys the routing path off its opcode byte *)
  let seen = Hashtbl.create 4 in
  for session = 0 to 3 do
    for seq = 0 to 7 do
      let payload = B.Workload.op_payload B.Workload.Xwin ~session ~seq in
      let path = B.Workload.path B.Workload.Xwin payload in
      Hashtbl.replace seen path ()
    done
  done;
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " generated") true (Hashtbl.mem seen p))
    [ "xwin.scroll"; "xwin.key"; "xwin.popup" ];
  (* and every opcode dispatches into the editor without raising *)
  let inst = B.Workload.instantiate B.Workload.Xwin in
  for seq = 0 to 7 do
    B.Workload.dispatch inst (B.Workload.op_payload B.Workload.Xwin ~session:1 ~seq)
  done

(* --- tentpole: domain identity for every workload x arrivals cell ------- *)

let zoo_kinds = [ B.Workload.Seccomm; B.Workload.Xwin; B.Workload.Chat ]

let zoo_specs =
  [ B.Arrivals.Uniform; B.Arrivals.Pareto 1.5; B.Arrivals.Flash (400, 6) ]

(* The cell configs, each with its profile and warm-up: a roomy queue,
   and a shed-prone one (queue limit 4, batch 2) whose flash crowds
   must shed or displace — a burst that never pressures the queue
   leaves the open-loop admission path untested. *)
let zoo_configs =
  let cell = B.Broker.default_config in
  [
    ( { cell with B.Broker.shards = 3; queue_limit = 16; seed = 11L },
      { B.Loadgen.default_profile with B.Loadgen.sessions = 4; ops = 3;
        interval = 90; spread = 31 },
      4 );
    ( { cell with B.Broker.shards = 4; batch = 2; queue_limit = 4; seed = 13L },
      { B.Loadgen.default_profile with B.Loadgen.sessions = 8; ops = 6;
        interval = 120; spread = 17 },
      6 );
  ]

let test_zoo_grid_identity () =
  (* every cell of the workload x arrivals grid, enumerated rather than
     sampled so no combination escapes the invariant: the serve
     document, snapshot report and summary at 3 domains equal the
     sequential run byte for byte *)
  let flash_pressure = ref 0 in
  List.iter
    (fun (cfg, profile, warmup_ops) ->
      List.iter
        (fun kind ->
          List.iter
            (fun arrivals ->
              let run domains =
                Helpers.serve ~warmup_ops
                  { cfg with B.Broker.kind; arrivals; domains }
                  profile
              in
              let r1 = run 1 in
              let r3 = run 3 in
              let sum1 = r1.Helpers.summary in
              let cell =
                Printf.sprintf "%s/%s, queue limit %d"
                  (B.Workload.kind_to_string kind)
                  (B.Arrivals.to_string arrivals)
                  cfg.B.Broker.queue_limit
              in
              Alcotest.(check string) (cell ^ ": document identical")
                r1.Helpers.json r3.Helpers.json;
              Alcotest.(check string) (cell ^ ": snapshots identical")
                r1.Helpers.snapshots r3.Helpers.snapshots;
              Alcotest.(check bool) (cell ^ ": summary identical") true
                (sum1 = r3.Helpers.summary);
              Alcotest.(check bool) (cell ^ ": ops actually dispatched") true
                (sum1.B.Loadgen.dispatched > 0);
              match arrivals with
              | B.Arrivals.Flash _ ->
                flash_pressure :=
                  !flash_pressure + sum1.B.Loadgen.shed
                  + sum1.B.Loadgen.displaced
              | _ -> ())
            zoo_specs)
        zoo_kinds)
    zoo_configs;
  Alcotest.(check bool) "flash crowds shed or displace" true
    (!flash_pressure > 0)

(* --- regression: the give-up latch -------------------------------------- *)

let test_nack_latch_after_give_up () =
  (* regression: [Session.nack] left the attempts entry behind when an
     op exhausted its retries, so a later nack for the same seq started
     the backoff over and bumped [gave_up] a second time *)
  let rt = Runtime.create () in
  let link = Link.create ~latency:10 ~seed:5L () in
  let backoff = { B.Policy.base = 10; factor = 2; cap = 40; max_retries = 1 } in
  let s =
    B.Session.create ~id:"s000" ~link
      ~ops:[| Bytes.of_string "op" |]
      ~start:0 ~interval:100 ~backoff ()
  in
  B.Session.pump s ~now:0 ~rt ~deliver_event:(Link.raise_timed "Drop");
  B.Session.nack s ~seq:0 ~now:20;
  B.Session.pump s ~now:40 ~rt ~deliver_event:(Link.raise_timed "Drop");
  B.Session.nack s ~seq:0 ~now:60;
  let st = B.Session.stats s in
  Alcotest.(check int) "gave up once" 1 st.B.Session.gave_up;
  Alcotest.(check bool) "finished" true (B.Session.finished s);
  (* the double nack: a straggler shed notification for the abandoned
     seq must change nothing but the nack count *)
  B.Session.nack s ~seq:0 ~now:80;
  B.Session.nack s ~seq:0 ~now:100;
  Alcotest.(check int) "gave_up latched at 1" 1 st.B.Session.gave_up;
  Alcotest.(check int) "stray nacks still counted" 4 st.B.Session.nacks;
  Alcotest.(check bool) "no retry resurrected" true (B.Session.finished s);
  Alcotest.(check (option int)) "nothing pending on the wheel" None
    (B.Session.next_due s)

(* --- regression: the computed tick budget -------------------------------- *)

let test_computed_tick_budget () =
  (* regression: the fixed 1_000_000 default under-scaled for big
     open-loop runs.  A session count well past the old
     ticks-per-session headroom must now complete untruncated with the
     computed default... *)
  let cfg =
    {
      B.Broker.default_config with
      B.Broker.shards = 4;
      kind = B.Workload.Xwin;
      optimize = false;
      seed = 3L;
      arrivals = B.Arrivals.Uniform;
    }
  in
  let profile =
    { B.Loadgen.default_profile with B.Loadgen.sessions = 400; ops = 2;
      interval = 60; spread = 3 }
  in
  let broker = B.Broker.create cfg in
  let s =
    Fun.protect
      ~finally:(fun () -> B.Broker.shutdown broker)
      (fun () -> B.Loadgen.run broker (B.Loadgen.make_sessions broker profile))
  in
  Alcotest.(check bool) "big open-loop run completes" false
    s.B.Loadgen.truncated;
  Alcotest.(check int) "every op arrived" 800 s.B.Loadgen.sent;
  (* ...while an explicit starvation budget still fails loudly *)
  let broker = B.Broker.create cfg in
  let s =
    Fun.protect
      ~finally:(fun () -> B.Broker.shutdown broker)
      (fun () ->
        B.Loadgen.run ~max_ticks:2 broker
          (B.Loadgen.make_sessions broker profile))
  in
  Alcotest.(check bool) "starved budget is flagged" true s.B.Loadgen.truncated

(* --- regression: register replaces -------------------------------------- *)

let test_register_replaces () =
  (* regression pin for Loadgen.steady: the steady phase re-registers
     the warm-up's ids, and from that moment a nack must reach only the
     new session — the warm-phase callback is gone, not shadowed *)
  let cfg =
    { B.Broker.default_config with B.Broker.shards = 1; queue_limit = 1;
      batch = 1 }
  in
  let broker = B.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      let warm_hits = ref 0 and steady_hits = ref 0 in
      B.Broker.register broker ~id:"s000" ~nack:(fun _ _ -> incr warm_hits);
      B.Broker.register broker ~id:"s000" ~nack:(fun _ _ -> incr steady_hits);
      let pkt seq = Packet.make ~src:"s000" ~dst:"broker" ~seq (Bytes.of_string "x") in
      (* queue limit 1: the second route sheds and nacks the owner *)
      B.Broker.route broker (pkt 0);
      B.Broker.route broker (pkt 1);
      Alcotest.(check int) "warm-phase callback never fires" 0 !warm_hits;
      Alcotest.(check int) "steady-phase callback gets the nack" 1 !steady_hits)

(* --- regression: the requeue clock floor --------------------------------- *)

let test_requeue_clock_floor () =
  let ing = B.Ingress.create ~limit:4 ~policy:B.Policy.Drop_newest in
  let pkt seq = Packet.make ~src:"s000" ~dst:"broker" ~seq (Bytes.of_string "x") in
  (* a fresh arrival, drained, then retried at the shard clock *)
  (match B.Ingress.offer ing ~now:3 (pkt 0) with
   | B.Ingress.Accepted -> ()
   | B.Ingress.Shed _ -> Alcotest.fail "offer shed below limit");
  let drained = B.Ingress.drain ing ~max:4 in
  Alcotest.(check int) "drained the arrival" 1 (List.length drained);
  B.Ingress.requeue ing ~due:100 (pkt 0);
  (* a fresh arrival from an earlier tick than the shard clock still
     drains FIRST: retries sort behind fresh traffic *)
  (match B.Ingress.offer ing ~now:7 (pkt 1) with
   | B.Ingress.Accepted -> ()
   | B.Ingress.Shed _ -> Alcotest.fail "offer shed below limit");
  (match B.Ingress.drain ing ~max:4 with
   | [ first; second ] ->
     Alcotest.(check int) "fresh arrival drains first" 1 first.Packet.seq;
     Alcotest.(check int) "retry drains after" 0 second.Packet.seq
   | l -> Alcotest.failf "expected 2 drained, got %d" (List.length l));
  (* the enforcement: the requeue clock is monotone, so a due below the
     floor means a caller handed us broker time instead of the shard
     clock — loud failure, not silent reordering *)
  B.Ingress.requeue ing ~due:150 (pkt 2);
  (match B.Ingress.requeue ing ~due:120 (pkt 3) with
   | () -> Alcotest.fail "requeue below the clock floor accepted"
   | exception Invalid_argument _ -> ());
  (* equal dues are fine (several retries inside one drain epoch) *)
  B.Ingress.requeue ing ~due:150 (pkt 4)

let suite =
  [
    Alcotest.test_case "arrivals codec" `Quick test_arrivals_codec;
    Alcotest.test_case "schedule shape" `Quick test_schedule_shape;
    Alcotest.test_case "chat fan-out amplification" `Quick test_chat_fanout;
    Alcotest.test_case "xwin payload paths" `Quick test_xwin_payload_paths;
    Alcotest.test_case "zoo grid: domain identity" `Quick
      test_zoo_grid_identity;
    Alcotest.test_case "nack latch after give-up" `Quick
      test_nack_latch_after_give_up;
    Alcotest.test_case "computed tick budget" `Quick test_computed_tick_budget;
    Alcotest.test_case "register replaces" `Quick test_register_replaces;
    Alcotest.test_case "requeue clock floor" `Quick test_requeue_clock_floor;
  ]
