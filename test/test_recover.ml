(* Crash recovery: the printed checkpoint keeps its pinned bytes, a
   snapshot shares no mutable state with the live shard (mutating the
   shard after a capture, or restoring one snapshot twice, changes
   nothing), a capture's cost does not grow with the live trace, the
   redo journal's high-water mark never drops entries, and the recovery
   path end-to-end preserves the broker's observable-identity law: a
   run with shard kills enabled is observably byte-identical to the same
   run with kills disabled (the Killed diff axis), and a killed serve is
   bit-identical across domain counts. *)

module B = Podopt_broker
module Recover = Podopt_recover.Recover
module Event_graph = Podopt.Event_graph
module Plan = Podopt_faults.Plan
module Packet = Podopt_net.Packet
module Value = Podopt_hir.Value
module Ast = Podopt_hir.Ast
module Prim = Podopt_hir.Prim
module Runtime = Podopt_eventsys.Runtime
module Event = Podopt_eventsys.Event
module Trace = Podopt_eventsys.Trace
module Adaptive = Podopt_optimize.Adaptive
module Record = Podopt.Record
module Diff = Podopt.Replay_diff

(* --- the printed form --------------------------------------------------- *)

(* A saved controller: a cumulative graph and a live window on top of
   it. *)
let sample_profile () =
  let window = Trace.create () in
  let events = Event.create_table () in
  Trace.enable_events ~log:false window;
  List.iter
    (fun (name, mode, depth) ->
      Trace.record_event window (Event.intern events name) ~mode ~time:0 ~depth)
    [ ("EvA", Ast.Async, 0); ("EvB", Ast.Sync, 1); ("EvC", Ast.Sync, 1) ];
  {
    Recover.adaptive =
      {
        Adaptive.absorbed =
          Event_graph.build
            [ ("EvA", Ast.Async); ("EvB", Ast.Sync); ("EvA", Ast.Async); ("EvB", Ast.Sync) ];
        absorbed_entries = 4;
        window = Trace.save window;
        fallback_baseline = 0;
        plan = None;
      };
    breaker = Podopt_optimize.Breaker.create ();
  }

(* The profile's store entry, as a shard with 5 ops served, chain
   threshold 1 and handlers bound to EvA and EvB prints it. *)
let sample_store (p : Recover.profile) =
  let graph, trace_entries = Adaptive.saved_profile p.Recover.adaptive in
  Podopt.Profile_store.to_string
    [
      Podopt.Profile_store.make_entry ~kind:"seccomm" ~shard:1 ~dispatched:5 ~trace_entries
        ~graph ~chains:[ [ "EvA"; "EvB" ] ]
        ~handlers:[ ("EvA", [ "h1"; "h2" ]); ("EvB", [ "h3" ]); ("EvC", []) ]
        ();
    ]

let sample_snapshot ?profile () =
  Recover.make ~shard:1 ~epoch:42 ~kind:"seccomm" ~clock:9000 ~sessions:4
    ~counters:[ ("shard.dispatched", 23); ("rt.optimized", 17) ]
    ~globals:
      [ ("g_n", Value.Int 5); ("g_key", Value.Bytes (Bytes.of_string "k\x00\xff")) ]
    ~queue:[ (100, Packet.make ~src:"s000" ~dst:"shard" ~seq:3 (Bytes.of_string "op")) ]
    ~retries:[ (("s000", 3), 2) ]
    ~dead:[ Packet.make ~src:"s001" ~dst:"shard" ~seq:9 Bytes.empty ]
    ~streams:[ ("spike", 5L); ("crash", 77L) ]
    ~profile ()

(* The printed form, down to the CRC-32 ids, must not drift:
   [recover.ckpt_bytes] measures it. *)
let sample_text =
  {|# podopt shard checkpoint
V 1
S 18d1724e 1 42 seccomm 9000 4
C rt.optimized 17
C shard.dispatched 23
G g_key 01000000000000000503000000000000006b00ff
G g_n 0100000000000000020500000000000000
Q 100 04000000000000000404000000000000007330303004050000000000000073686172640203000000000000000502000000000000006f70
R s000 3 2
X 0400000000000000040400000000000000733030310405000000000000007368617264020900000000000000050000000000000000
P crash 77
P spike 5
|}

let sample_text_with_profile =
  {|# podopt shard checkpoint
V 1
S 2ade2dd2 1 42 seccomm 9000 4
C rt.optimized 17
C shard.dispatched 23
G g_key 01000000000000000503000000000000006b00ff
G g_n 0100000000000000020500000000000000
Q 100 04000000000000000404000000000000007330303004050000000000000073686172640203000000000000000502000000000000006f70
R s000 3 2
X 0400000000000000040400000000000000733030310405000000000000007368617264020900000000000000050000000000000000
P crash 77
P spike 5
F # podopt profile store
F V 3
F E 71a1c007 seccomm 1 5 7
F N EvA 3 0 3 0
F N EvB 3 3 0 0
F N EvC 1 1 0 0
F G EvA EvB 3 3 0 0
F G EvB EvA 1 0 1 0
F G EvB EvC 1 1 0 0
F C EvA EvB
F H EvA h1 h2
F H EvB h3
F H EvC
|}

let test_printed_form_pinned () =
  Alcotest.(check string) "printed form" sample_text
    (Recover.to_string (sample_snapshot ()) ~store:"");
  let profile = sample_profile () in
  Alcotest.(check string) "printed form with a profile" sample_text_with_profile
    (Recover.to_string (sample_snapshot ~profile ()) ~store:(sample_store profile))

(* --- aliasing ----------------------------------------------------------- *)

let kind = B.Workload.Seccomm

let shard ?(kind = kind) ?faults ?breaker () =
  B.Shard.create ?faults ?breaker ~id:0 ~kind ~optimize:true ~queue_limit:64
    ~policy:B.Policy.Drop_newest ()

let op ?(kind = kind) ?(session = 0) seq =
  Packet.make ~src:(Printf.sprintf "s%03d" session) ~dst:"shard" ~seq
    (B.Workload.op_payload kind ~session ~seq)

let feed ?kind s ~from ~n =
  for seq = from to from + n - 1 do
    ignore (B.Shard.offer s ~now:seq (op ?kind seq))
  done

let drain s = while B.Shard.drain_batch s ~now:0 ~batch:16 > 0 do () done

(* A shard with super-handlers installed, a cumulative profile, a live
   trace window, queued ops and a dead letter. *)
let busy_shard () =
  let s = shard () in
  feed s ~from:0 ~n:40;
  drain s;
  feed s ~from:40 ~n:8;
  drain s;
  feed s ~from:48 ~n:4;
  Queue.push (op ~session:7 1) s.B.Shard.dead;
  Alcotest.(check bool) "super-handlers installed" true
    (B.Shard.optimized_dispatches s > 0);
  s

(* Write one byte into every [Bytes] global the way HIR's [bytes_set]
   does: in place. *)
let scribble_globals (s : B.Shard.t) =
  let scribbled =
    Podopt_hir.Interp.Globals.fold
      (fun _ v n ->
        match v with
        | Value.Bytes _ ->
          ignore (Prim.apply "bytes_set" [ v; Value.Int 0; Value.Int 0x58 ]);
          n + 1
        | _ -> n)
      s.B.Shard.rt.Runtime.globals 0
  in
  if scribbled = 0 then Alcotest.fail "no bytes global to mutate"

let flip (b : bytes) =
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff))

let test_capture_shares_nothing () =
  let s = busy_shard () in
  let snap = B.Shard.capture s ~epoch:1 in
  let printed = B.Shard.checkpoint s ~epoch:1 in
  scribble_globals s;
  (match B.Ingress.to_list s.B.Shard.ingress with
   | (_, p) :: _ -> flip p.Packet.payload
   | [] -> Alcotest.fail "nothing queued");
  flip (Queue.peek s.B.Shard.dead).Packet.payload;
  Hashtbl.replace s.B.Shard.retry ("s009", 1) 2;
  Queue.push (op ~session:9 1) s.B.Shard.dead;
  (* grow the trace, then fold it into the cumulative profile *)
  feed s ~from:52 ~n:24;
  drain s;
  (match s.B.Shard.adaptive with
   | Some a ->
     Alcotest.(check bool) "reoptimize absorbs the window" true
       (Adaptive.reoptimize a <> None)
   | None -> Alcotest.fail "generic shard");
  Alcotest.(check bool) "the live shard moved on" false
    (String.equal printed (B.Shard.checkpoint s ~epoch:1));
  B.Shard.kill s;
  B.Shard.restore s snap;
  Alcotest.(check string) "restored shard prints the captured text" printed
    (B.Shard.checkpoint s ~epoch:1)

(* One snapshot serves every kill until the next checkpoint: a restored
   shard that scribbles on its buffers must not leak into the next
   restore. *)
let test_restore_twice () =
  let s = busy_shard () in
  let snap = B.Shard.capture s ~epoch:1 in
  let recover () =
    B.Shard.kill s;
    B.Shard.restore s snap;
    let printed = B.Shard.checkpoint s ~epoch:1 in
    (* scribble on every restored buffer, as handlers could *)
    scribble_globals s;
    List.iter
      (fun (_, p) -> flip p.Packet.payload)
      (B.Ingress.to_list s.B.Shard.ingress);
    flip (Queue.peek s.B.Shard.dead).Packet.payload;
    let seen = ref [] in
    B.Shard.set_on_delivery s
      (Some
         (fun ~shard:_ ~src ~seq ~ok ~payload ->
           seen := (src, seq, ok, Bytes.to_string payload) :: !seen));
    feed s ~from:52 ~n:24;
    drain s;
    B.Shard.set_on_delivery s None;
    (printed, List.rev !seen)
  in
  let printed1, seen1 = recover () in
  let printed2, seen2 = recover () in
  Alcotest.(check string) "equal printed forms" printed1 printed2;
  Alcotest.(check int) "every op delivered" 28 (List.length seen1);
  Alcotest.(check bool) "equal deliveries" true (seen1 = seen2)

(* --- the installed plan ------------------------------------------------- *)

let optimized_names (s : B.Shard.t) =
  let rt = s.B.Shard.rt in
  List.sort compare
    (List.map
       (fun id -> (Option.get (Event.of_id rt.Runtime.events id)).Event.name)
       (Runtime.optimized_events rt))

(* A restore puts back the super-handlers the shard had.  A chat shard
   optimized before a capture records a profile in which its
   super-handlers subsume the ChatMsg chain, so re-planning from that
   profile would leave ChatMsg, the event every op raises, generic. *)
let test_restore_reinstalls_plan () =
  let kind = B.Workload.Chat in
  let s = shard ~kind () in
  feed ~kind s ~from:0 ~n:16;
  drain s;
  Alcotest.(check bool) "force_reoptimize installs" true (B.Shard.force_reoptimize s);
  (* profile the optimized path, so the graph loses the subsumed chain *)
  feed ~kind s ~from:16 ~n:32;
  drain s;
  let before = optimized_names s in
  Alcotest.(check bool) "ChatMsg optimized before the kill" true
    (List.mem "ChatMsg" before);
  let snap = B.Shard.capture s ~epoch:1 in
  B.Shard.kill s;
  Alcotest.(check (list string)) "a kill uninstalls everything" [] (optimized_names s);
  B.Shard.restore s snap;
  Alcotest.(check (list string)) "restored super-handlers" before (optimized_names s);
  B.Shard.recovery_complete s ~redelivered:0;
  feed ~kind s ~from:48 ~n:8;
  drain s;
  let r = B.Shard.recovery s in
  Alcotest.(check int) "ramp all optimized: generic" 0 r.B.Shard.ramp_generic;
  Alcotest.(check bool) "ramp all optimized: optimized" true
    (r.B.Shard.ramp_optimized > 0)

(* A shard killed while its breaker cools comes back cooling, with its
   trips counted: a fresh breaker would let the controller re-optimize
   at once, where the live shard serves generic until the cool-down
   ends. *)
let test_restore_keeps_breaker () =
  let kind = B.Workload.Chat in
  let s =
    shard ~kind
      ~faults:{ Plan.none with Plan.seed = 3L; crash_permille = 400 }
      ~breaker:
        { Podopt_optimize.Breaker.window = 4; trip_permille = 150; min_events = 4;
          cooldown = 64 }
      ()
  in
  feed ~kind s ~from:0 ~n:16;
  drain s;
  Alcotest.(check bool) "force_reoptimize installs" true (B.Shard.force_reoptimize s);
  let rounds = ref 0 in
  while (not (B.Shard.breaker_open s)) && !rounds < 50 do
    feed ~kind s ~from:(16 + (4 * !rounds)) ~n:4;
    drain s;
    incr rounds
  done;
  Alcotest.(check bool) "the breaker tripped" true (B.Shard.breaker_open s);
  let trips = B.Shard.breaker_trips s in
  let snap = B.Shard.capture s ~epoch:1 in
  B.Shard.kill s;
  B.Shard.restore s snap;
  Alcotest.(check bool) "restored breaker still cooling" true (B.Shard.breaker_open s);
  Alcotest.(check int) "restored breaker trips" trips (B.Shard.breaker_trips s)

(* --- the deferred profile ----------------------------------------------- *)

(* A capture merges the live window's counters: its allocation must not
   grow with the window's length (a fold over a trace list allocates at
   least 3 words per entry). *)
let test_capture_cost_flat () =
  let s = busy_shard () in
  let rt = s.B.Shard.rt in
  let trace = rt.Runtime.trace in
  Trace.clear trace;
  let probe = Runtime.event rt "Probe" in
  let grow_to n =
    while Trace.occurrences trace < n do
      Trace.record_event trace probe ~mode:Ast.Async ~time:(Trace.occurrences trace)
        ~depth:0
    done
  in
  let words () =
    ignore (B.Shard.capture s ~epoch:1);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (B.Shard.capture s ~epoch:1));
    Gc.minor_words () -. w0
  in
  grow_to 100;
  let small = words () in
  grow_to 10_000;
  let large = words () in
  if Float.abs (large -. small) > 1000. then
    Alcotest.failf "capture allocated %.0f words at 100 trace entries, %.0f at 10,000"
      small large

(* --- the redo journal --------------------------------------------------- *)

let test_journal_high_water () =
  let j = Recover.journal ~limit:4 in
  Alcotest.(check bool) "empty journal is not full" false (Recover.full j);
  let pkt i = Packet.make ~src:"s000" ~dst:"shard" ~seq:i (Bytes.of_string "x") in
  for i = 1 to 6 do
    Recover.record j (Recover.Offer (i * 10, pkt i))
  done;
  Recover.record j (Recover.Drain (70, 16));
  Alcotest.(check bool) "past the mark is full" true (Recover.full j);
  (* the mark is a checkpoint trigger, not a cap: nothing was dropped *)
  Alcotest.(check int) "entries are never dropped" 7 (Recover.journal_length j);
  (match Recover.entries j with
   | Recover.Offer (10, p) :: _ ->
     Alcotest.(check int) "admission order preserved" 1 p.Packet.seq
   | _ -> Alcotest.fail "first entry is not the first offer");
  Recover.clear j;
  Alcotest.(check int) "clear empties" 0 (Recover.journal_length j);
  Alcotest.(check bool) "cleared journal is not full" false (Recover.full j);
  (match Recover.journal ~limit:0 with
   | _ -> Alcotest.fail "limit 0 accepted"
   | exception Invalid_argument _ -> ())

(* --- end-to-end: kills are observably invisible -------------------------- *)

let profile =
  {
    B.Loadgen.default_profile with
    B.Loadgen.sessions = 6;
    ops = 8;
    interval = 120;
    spread = 31;
  }

let killed_faults = { Plan.none with Plan.seed = 7L; kill_permille = 300 }

let base_cfg =
  {
    B.Broker.default_config with
    B.Broker.shards = 2;
    seed = 9L;
    checkpoint_every = 2;
    faults = killed_faults;
  }

(* The oracle run on the recovery axis: one recorded log executed with
   the recorded kill plan and with kills stripped must be observably
   identical — dispatch order, per-attempt success, payload digests,
   client accounting. *)
let test_killed_diff_no_divergence () =
  let log = Record.run ~warmup_ops:12 base_cfg profile in
  let report = Diff.run Diff.Killed log in
  (match report.Diff.divergence with
   | None -> ()
   | Some (what, l, r) ->
     Alcotest.failf "killed diverged at %s: %s vs %s" what l r);
  Alcotest.(check bool) "deliveries observed" true (report.Diff.deliveries > 0)

(* A kill-free recording gets the axis' default kill rate injected on
   the killed side — replaying old logs still exercises recovery. *)
let test_killed_diff_from_clean_log () =
  let cfg = { base_cfg with B.Broker.faults = Plan.none } in
  let log = Record.run ~warmup_ops:12 cfg profile in
  let report = Diff.run Diff.Killed log in
  match report.Diff.divergence with
  | None -> ()
  | Some (what, l, r) ->
    Alcotest.failf "killed-from-clean diverged at %s: %s vs %s" what l r

let test_killed_domain_identity () =
  let serve domains =
    Helpers.serve ~warmup_ops:12 { base_cfg with B.Broker.domains } profile
  in
  let r1 = serve 1 in
  let r4 = serve 4 in
  let s1 = r1.Helpers.summary in
  Alcotest.(check bool) "kills actually drawn" true (s1.B.Loadgen.kills > 0);
  Alcotest.(check bool) "recoveries completed" true
    (s1.B.Loadgen.recoveries > 0);
  Alcotest.(check bool) "restarts are warm" true
    (s1.B.Loadgen.ramp_optimized > 0);
  Alcotest.(check bool) "summaries identical at domains 1 vs 4" true
    (s1 = r4.Helpers.summary);
  Alcotest.(check string) "killed serve JSON byte-identical at domains 1 vs 4"
    r1.Helpers.json r4.Helpers.json

(* A restored shard whose clock lags broker time.  With these flags
   shard 3 checkpoints at clock 0 holding an arrival due at broker time
   150; after a kill its redelivered op crashes and is retried at the
   shard clock, 0.  The requeue floor must come from the restored clock,
   not from the queued dues. *)
let test_restore_behind_broker_time () =
  let cfg =
    {
      B.Broker.default_config with
      B.Broker.shards = 4;
      route = B.Shard_map.Zipf 1.2;
      checkpoint_every = 2;
      faults =
        { Plan.none with Plan.seed = 1L; crash_permille = 50; kill_permille = 150 };
    }
  in
  let profile = B.Loadgen.default_profile in
  let s = (Helpers.serve ~warmup_ops:12 cfg profile).Helpers.summary in
  Alcotest.(check bool) "kills actually drawn" true (s.B.Loadgen.kills > 0);
  Alcotest.(check bool) "handlers actually crashed" true
    (s.B.Loadgen.failures > 0);
  let log = Record.run ~warmup_ops:12 cfg profile in
  match (Diff.run Diff.Killed log).Diff.divergence with
  | None -> ()
  | Some (what, l, r) ->
    Alcotest.failf "killed diverged at %s: %s vs %s" what l r


(* The workload the cheap checkpoints speed up: a chat flash crowd with
   handler crashes and shard kills, checkpointed every epoch and every
   fourth.  A restore reinstalls the plan the shard had, so the killed
   run's dispatch split and handler time equal the kill-free run's, and
   sessions first routed after the last checkpoint stay counted. *)
let test_chat_flash_kills ~checkpoint_every () =
  let cfg =
    {
      base_cfg with
      B.Broker.kind = B.Workload.Chat;
      arrivals = B.Arrivals.Flash (600, 8);
      checkpoint_every;
      faults =
        { Plan.none with Plan.seed = 11L; crash_permille = 5; kill_permille = 150 };
    }
  in
  let profile = { profile with B.Loadgen.sessions = 24; ops = 10 } in
  let log = Record.run ~warmup_ops:12 cfg profile in
  (match (Diff.run Diff.Killed log).Diff.divergence with
   | None -> ()
   | Some (what, l, r) ->
     Alcotest.failf "killed diverged at %s: %s vs %s" what l r);
  let serve domains =
    Helpers.serve ~warmup_ops:12 { cfg with B.Broker.domains } profile
  in
  let r1 = serve 1 in
  let r2 = serve 2 in
  Alcotest.(check bool) "kills actually drawn" true
    (r1.Helpers.summary.B.Loadgen.kills > 0);
  Alcotest.(check string) "killed serve JSON byte-identical at domains 1 vs 2"
    r1.Helpers.json r2.Helpers.json;
  let free =
    Helpers.serve ~warmup_ops:12
      { cfg with B.Broker.faults = { cfg.B.Broker.faults with Plan.kill_permille = 0 } }
      profile
  in
  let dispatch (r : Helpers.served) =
    let s = r.Helpers.summary in
    [ s.B.Loadgen.optimized; s.B.Loadgen.generic; s.B.Loadgen.busy; s.B.Loadgen.makespan ]
  in
  Alcotest.(check (list int)) "optimized, generic, busy, makespan as kill-free"
    (dispatch free) (dispatch r1);
  Alcotest.(check (list int)) "per-shard sessions as kill-free"
    free.Helpers.sessions r1.Helpers.sessions

let suite =
  [
    Alcotest.test_case "printed checkpoint form is pinned" `Quick
      test_printed_form_pinned;
    Alcotest.test_case "capture shares nothing with the live shard" `Quick
      test_capture_shares_nothing;
    Alcotest.test_case "one snapshot restores twice alike" `Quick
      test_restore_twice;
    Alcotest.test_case "restore reinstalls the installed plan" `Quick
      test_restore_reinstalls_plan;
    Alcotest.test_case "restore keeps the breaker's state" `Quick
      test_restore_keeps_breaker;
    Alcotest.test_case "capture cost is flat in the trace length" `Quick
      test_capture_cost_flat;
    Alcotest.test_case "journal high-water mark drops nothing" `Quick
      test_journal_high_water;
    Alcotest.test_case "killed run observably identical to kill-free" `Quick
      test_killed_diff_no_divergence;
    Alcotest.test_case "recovery axis works from a kill-free log" `Quick
      test_killed_diff_from_clean_log;
    Alcotest.test_case "killed serve identical across domains" `Quick
      test_killed_domain_identity;
    Alcotest.test_case "restore behind broker time retries a crash" `Quick
      test_restore_behind_broker_time;
    Alcotest.test_case "chat flash-crowd kills, checkpoint every epoch" `Quick
      (test_chat_flash_kills ~checkpoint_every:1);
    Alcotest.test_case "chat flash-crowd kills, checkpoint every 4" `Quick
      (test_chat_flash_kills ~checkpoint_every:4);
  ]
