(* Parallel-drain determinism: running the broker on several domains
   must be invisible in the results.  For every config we run the same
   workload on one domain and on several and require (a) the run
   summary and (b) the per-shard snapshot report — every counter, queue
   stat, and per-shard virtual clock — to be byte-identical.  That is
   the contract the exactly-once shard claims and the route/drain epoch
   barrier exist to keep. *)

module B = Podopt_broker

let run_once ?(warmup_ops = 6) ~domains ~shards ~kind ~optimize ?(batch = 16)
    ?(queue_limit = 256) ?(policy = B.Policy.Drop_newest) profile =
  Helpers.serve ~warmup_ops
    {
      B.Broker.default_config with
      B.Broker.shards;
      kind;
      optimize;
      batch;
      queue_limit;
      policy;
      seed = 11L;
      domains;
    }
    profile

let check_matches_sequential ~msg ~domains run =
  let seq = run ~domains:1 in
  let par = run ~domains in
  Alcotest.(check string)
    (msg ^ ": per-shard snapshots byte-identical")
    seq.Helpers.snapshots par.Helpers.snapshots;
  Alcotest.(check bool)
    (msg ^ ": run summary identical")
    true
    (seq.Helpers.summary = par.Helpers.summary)

let profile ~sessions ~ops =
  {
    B.Loadgen.default_profile with
    B.Loadgen.sessions;
    ops;
    interval = 120;
    spread = 31;
  }

(* --- unit cases -------------------------------------------------------- *)

let test_seccomm_optimized () =
  let run ~domains =
    run_once ~domains ~shards:4 ~kind:B.Workload.Seccomm ~optimize:true
      (profile ~sessions:10 ~ops:8)
  in
  List.iter
    (fun domains ->
      check_matches_sequential
        ~msg:(Printf.sprintf "seccomm optimized, %d domains" domains)
        ~domains run)
    [ 2; 4 ]

let test_video_generic () =
  let run ~domains =
    run_once ~domains ~shards:3 ~kind:B.Workload.Video ~optimize:false
      { (profile ~sessions:4 ~ops:3) with B.Loadgen.interval = 400 }
  in
  check_matches_sequential ~msg:"video generic, 2 domains" ~domains:2 run

let test_shards_exceed_domains () =
  (* 8 shards on 3 domains: more shards than lanes, so lanes claim
     several shards per epoch — each shard's results must still match
     the 1-domain run *)
  let run ~domains =
    run_once ~domains ~shards:8 ~kind:B.Workload.Seccomm ~optimize:true
      (profile ~sessions:12 ~ops:6)
  in
  check_matches_sequential ~msg:"8 shards on 3 domains" ~domains:3 run

let test_overload_parallel () =
  (* overload: shedding, nacks, retries, give-ups — all of it decided
     during routing on the coordinator, so 4 domains must replay the
     sequential run exactly even when queues are thrashing *)
  let run ~domains =
    run_once ~domains ~shards:4 ~kind:B.Workload.Seccomm ~optimize:false
      ~batch:1 ~queue_limit:2 ~policy:B.Policy.Drop_oldest ~warmup_ops:0
      {
        (profile ~sessions:12 ~ops:10) with
        B.Loadgen.interval = 60;
        spread = 11;
      }
  in
  let seq = run ~domains:1 in
  (* Drop_oldest accepts every arrival and evicts queue heads, so the
     overload pressure surfaces as displacements rather than door-sheds *)
  Alcotest.(check bool)
    "overload profile actually displaces" true
    (seq.Helpers.summary.B.Loadgen.displaced > 0);
  check_matches_sequential ~msg:"overload, 4 domains" ~domains:4 run

let test_domains_invalid () =
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Broker.create: domains <= 0") (fun () ->
      ignore
        (B.Broker.create { B.Broker.default_config with B.Broker.domains = 0 }))

let test_parallel_flag () =
  List.iter
    (fun domains ->
      let b = B.Broker.create { B.Broker.default_config with B.Broker.domains } in
      Alcotest.(check int) "domains accessor" domains (B.Broker.domains b);
      B.Broker.shutdown b;
      B.Broker.shutdown b (* idempotent *);
      Alcotest.check_raises "drain after shutdown"
        (Invalid_argument "Pool.run_steal: pool is shut down") (fun () ->
          ignore (B.Broker.drain b)))
    [ 1; 2 ]

let suite =
  [
    Alcotest.test_case "seccomm optimized: 2 and 4 domains" `Quick
      test_seccomm_optimized;
    Alcotest.test_case "video generic: 2 domains" `Quick test_video_generic;
    Alcotest.test_case "8 shards on 3 domains" `Quick
      test_shards_exceed_domains;
    Alcotest.test_case "overload under 4 domains" `Quick
      test_overload_parallel;
    Alcotest.test_case "domains must be positive" `Quick test_domains_invalid;
    Alcotest.test_case "parallel/domains accessors" `Quick test_parallel_flag;
  ]
