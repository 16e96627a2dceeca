(* Crash recovery: the checkpoint codec is a content-addressed fixpoint
   (qcheck), tampered / version-skewed checkpoints are refused, the redo
   journal's high-water mark never drops entries, and the recovery path
   end-to-end preserves the broker's observable-identity law: a run with
   shard kills enabled is observably byte-identical to the same run with
   kills disabled (the Killed diff axis), and a killed serve is
   bit-identical across domain counts. *)

module B = Podopt_broker
module Recover = Podopt_recover.Recover
module Store = Podopt.Profile_store
module Event_graph = Podopt.Event_graph
module Plan = Podopt_faults.Plan
module Packet = Podopt_net.Packet
module Value = Podopt_hir.Value
module Record = Podopt.Record
module Diff = Podopt.Replay_diff

(* --- generators --------------------------------------------------------- *)

let event_names = [ "EvA"; "EvB"; "EvC" ]

let gen_packet =
  let open QCheck2.Gen in
  let* src = oneofl [ "s000"; "s001"; "s017" ] in
  let* seq = 0 -- 99 in
  let* payload = map Bytes.of_string (string_size ~gen:char (0 -- 16)) in
  return (Packet.make ~src ~dst:"shard" ~seq payload)

let gen_value =
  let open QCheck2.Gen in
  oneof
    [
      return Value.Unit;
      map (fun b -> Value.Bool b) bool;
      map (fun n -> Value.Int n) (-1000 -- 1000);
      map (fun s -> Value.Str s) (string_size ~gen:printable (0 -- 8));
      map (fun s -> Value.Bytes (Bytes.of_string s)) (string_size ~gen:char (0 -- 8));
      map2 (fun a b -> Value.Pair (Value.Int a, Value.Int b)) (0 -- 9) (0 -- 9);
      map (fun ns -> Value.List (List.map (fun n -> Value.Int n) ns))
        (list_size (0 -- 3) (0 -- 9));
    ]

let gen_entry =
  let open QCheck2.Gen in
  let gen_edge =
    let* src = oneofl event_names in
    let* dst = oneofl event_names in
    return (src, dst)
  in
  let* edges = list_size (0 -- 8) gen_edge in
  let* dispatched = 0 -- 200 in
  let* trace_entries = 0 -- 500 in
  let* handlers =
    list_size (0 -- 2)
      (let* ev = oneofl event_names in
       let* hs = list_size (1 -- 2) (oneofl [ "h1"; "h2" ]) in
       return (ev, hs))
  in
  let handlers = List.sort_uniq (fun (a, _) (b, _) -> compare a b) handlers in
  return
    (let g = Event_graph.create () in
     List.iter
       (fun (src, dst) -> Event_graph.add_edge g ~src ~dst Podopt_hir.Ast.Sync)
       edges;
     Store.make_entry ~kind:"seccomm" ~shard:0 ~dispatched ~trace_entries
       ~graph:g ~chains:[] ~handlers ())

let counter_names =
  [ "rt.generic"; "rt.optimized"; "shard.dispatched"; "ingress.offered" ]

let gen_snapshot =
  let open QCheck2.Gen in
  let* shard = 0 -- 7 in
  let* epoch = 0 -- 500 in
  let* clock = 0 -- 100_000 in
  let* sessions = 0 -- 32 in
  let* counters =
    list_size (0 -- 4)
      (let* name = oneofl counter_names in
       let* v = 0 -- 10_000 in
       return (name, v))
  in
  let counters = List.sort_uniq (fun (a, _) (b, _) -> compare a b) counters in
  let* globals =
    list_size (0 -- 4)
      (let* name = oneofl [ "g_a"; "g_b"; "g_c"; "g_d" ] in
       let* v = gen_value in
       return (name, v))
  in
  let globals = List.sort_uniq (fun (a, _) (b, _) -> compare a b) globals in
  let* queue = list_size (0 -- 5) (pair (0 -- 5000) gen_packet) in
  let* retries =
    list_size (0 -- 3)
      (let* src = oneofl [ "s000"; "s001" ] in
       let* seq = 0 -- 20 in
       let* count = 1 -- 3 in
       return ((src, seq), count))
  in
  let retries = List.sort_uniq (fun (a, _) (b, _) -> compare a b) retries in
  let* dead = list_size (0 -- 3) gen_packet in
  let* streams =
    list_size (0 -- 3)
      (let* kind = oneofl [ "crash"; "spike"; "corrupt"; "drop" ] in
       let* state = map Int64.of_int (0 -- 1_000_000) in
       return (kind, state))
  in
  let streams = List.sort_uniq (fun (a, _) (b, _) -> compare a b) streams in
  let* profile = option gen_entry in
  return
    (Recover.make ~shard ~epoch ~kind:"seccomm" ~clock ~sessions ~counters
       ~globals ~queue ~retries ~dead ~streams ~profile ())

(* --- codec properties --------------------------------------------------- *)

let prop_codec_fixpoint =
  QCheck2.Test.make ~name:"checkpoint codec is a fixpoint" ~count:200
    gen_snapshot (fun snap ->
      let s1 = Recover.to_string snap in
      let s2 = Recover.to_string (Recover.of_string s1) in
      String.equal s1 s2)

let prop_id_stable =
  QCheck2.Test.make ~name:"checkpoint id survives the round trip" ~count:200
    gen_snapshot (fun snap ->
      String.equal (Recover.id snap)
        (Recover.id (Recover.of_string (Recover.to_string snap))))

(* --- load-time verification --------------------------------------------- *)

let sample_snapshot () =
  Recover.make ~shard:1 ~epoch:42 ~kind:"seccomm" ~clock:9000 ~sessions:4
    ~counters:[ ("rt.optimized", 17); ("shard.dispatched", 23) ]
    ~globals:[ ("g_n", Value.Int 5) ]
    ~queue:[ (100, Packet.make ~src:"s000" ~dst:"shard" ~seq:3 (Bytes.of_string "op")) ]
    ~retries:[ (("s000", 3), 2) ]
    ~dead:[]
    ~streams:[ ("crash", 77L) ]
    ~profile:None ()

let replace_first s ~sub ~by =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.failf "%S not found" sub
    else if String.equal (String.sub s i m) sub then
      String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
    else go (i + 1)
  in
  go 0

let test_tamper_rejected () =
  let text = Recover.to_string (sample_snapshot ()) in
  (* flip a counter: the stored id no longer matches the content *)
  let tampered = replace_first text ~sub:"rt.optimized 17" ~by:"rt.optimized 18" in
  Alcotest.(check bool) "tamper changed the text" false (String.equal text tampered);
  (match Recover.of_string tampered with
   | _ -> Alcotest.fail "tampered checkpoint loaded"
   | exception Recover.Format_error _ -> ());
  (* dropping a line is refused too *)
  let truncated = replace_first text ~sub:"P crash 77\n" ~by:"" in
  (match Recover.of_string truncated with
   | _ -> Alcotest.fail "truncated checkpoint loaded"
   | exception Recover.Format_error _ -> ());
  (* the pristine text still loads *)
  ignore (Recover.of_string text)

let test_version_skew_rejected () =
  let text = Recover.to_string (sample_snapshot ()) in
  let skewed =
    replace_first text
      ~sub:(Printf.sprintf "V %d" Recover.version)
      ~by:(Printf.sprintf "V %d" (Recover.version + 1))
  in
  match Recover.of_string skewed with
  | _ -> Alcotest.fail "version-skewed checkpoint loaded"
  | exception Recover.Format_error msg ->
    Alcotest.(check bool) "error names the version" true
      (Astring_contains.contains msg "version")

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

let serve_killed ~domains =
  let cfg = { base_cfg with B.Broker.domains } in
  let broker = B.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      let s = B.Loadgen.steady ~warmup_ops:12 broker profile in
      (B.Report.json ~metrics:false broker s, s))

let test_killed_domain_identity () =
  let j1, s1 = serve_killed ~domains:1 in
  let j4, s4 = serve_killed ~domains:4 in
  Alcotest.(check bool) "kills actually drawn" true (s1.B.Loadgen.kills > 0);
  Alcotest.(check bool) "recoveries completed" true
    (s1.B.Loadgen.recoveries > 0);
  Alcotest.(check bool) "restarts are warm" true
    (s1.B.Loadgen.ramp_optimized > 0);
  Alcotest.(check bool) "summaries identical at domains 1 vs 4" true (s1 = s4);
  Alcotest.(check string) "killed serve JSON byte-identical at domains 1 vs 4"
    j1 j4

let suite =
  [
    QCheck_alcotest.to_alcotest prop_codec_fixpoint;
    QCheck_alcotest.to_alcotest prop_id_stable;
    Alcotest.test_case "load rejects a tampered checkpoint" `Quick
      test_tamper_rejected;
    Alcotest.test_case "load rejects a version-skewed checkpoint" `Quick
      test_version_skew_rejected;
    Alcotest.test_case "journal high-water mark drops nothing" `Quick
      test_journal_high_water;
    Alcotest.test_case "killed run observably identical to kill-free" `Quick
      test_killed_diff_no_divergence;
    Alcotest.test_case "recovery axis works from a kill-free log" `Quick
      test_killed_diff_from_clean_log;
    Alcotest.test_case "killed serve identical across domains" `Quick
      test_killed_domain_identity;
  ]
