(* The cross-axis identity property.  One generator draws a whole broker
   configuration — workload, arrivals, fault mix, route, shed policy,
   shards, batch, queue limit, checkpoint interval, optimizer, seed and
   load shape — plus a domain count D, and checks every identity the
   broker promises on that one case at once:

   - the serve document, the per-shard snapshot report and the run
     summary at D domains equal the 1-domain run's;
   - the run is not truncated;
   - the recorded 1-domain run equals the served one, survives the
     log's text codec, and replays byte-identically at D domains with
     no fault-draw mismatch;
   - the differential oracle finds no divergence on any axis
     (optimizer, codegen, killed);
   - no exception escapes.

   A bug that needs two axes at once (a kill and a handler crash, say)
   hides from checks that turn one knob at a time.  Every drawn field
   is one [podopt record] and [podopt serve] can set, so a failing case
   prints as a runnable command line. *)

module B = Podopt_broker
module Plan = Podopt_faults.Plan
module Record = Podopt.Record
module Replay = Podopt.Replay
module RL = Podopt.Replay_log
module Diff = Podopt.Replay_diff

type case = {
  cfg : B.Broker.config;  (** at one domain *)
  profile : B.Loadgen.profile;
  warmup : int;
  domains : int;  (** D, compared against the 1-domain run *)
}

let gen =
  let open QCheck2.Gen in
  (* a rate that is often 0, so single-fault and fault-free cases stay
     common *)
  let rate hi = frequency [ (1, pure 0); (1, int_range 1 hi) ] in
  let faults =
    let+ seed = int_range 1 100
    and+ crash = rate 300
    and+ spike = rate 200
    and+ drop = rate 50
    and+ corrupt = rate 50
    and+ kill = rate 300 in
    let spec =
      {
        Plan.none with
        Plan.seed = Int64.of_int seed;
        crash_permille = crash;
        spike_permille = spike;
        drop_permille = drop;
        corrupt_permille = corrupt;
        kill_permille = kill;
      }
    in
    (* a spec with every rate 0 prints as "none", so it runs as none *)
    if Plan.enabled spec then spec else Plan.none
  in
  let arrivals =
    oneof
      [
        pure B.Arrivals.Periodic;
        pure B.Arrivals.Uniform;
        map (fun q -> B.Arrivals.Pareto (float_of_int q /. 4.0)) (int_range 5 12);
        map2
          (fun t m -> B.Arrivals.Flash (t * 100, m))
          (int_range 2 8) (int_range 2 8);
      ]
  in
  let route =
    oneof
      [
        pure B.Shard_map.Hash;
        map (fun q -> B.Shard_map.Zipf (float_of_int q /. 4.0)) (int_range 1 10);
      ]
  in
  let broker =
    let+ kind =
      oneofl
        [ B.Workload.Seccomm; B.Workload.Video; B.Workload.Xwin; B.Workload.Chat ]
    and+ arrivals
    and+ faults
    and+ route
    and+ policy = oneofl [ B.Policy.Drop_newest; B.Policy.Drop_oldest ]
    and+ shards = int_range 1 6
    and+ batch = int_range 1 16
    and+ queue_limit = oneof [ int_range 1 16; oneofl [ 64; 256 ] ]
    and+ checkpoint_every = int_range 1 8
    and+ optimize = bool
    and+ seed = int_range 1 99 in
    {
      B.Broker.default_config with
      B.Broker.kind;
      arrivals;
      faults;
      route;
      policy;
      shards;
      batch;
      queue_limit;
      checkpoint_every;
      optimize;
      seed = Int64.of_int seed;
    }
  in
  let+ cfg = broker
  and+ sessions = int_range 2 6
  and+ ops = int_range 2 6
  and+ interval = int_range 60 200
  and+ latency = int_range 10 80
  and+ jitter = int_range 0 10
  and+ warmup = int_range 0 6
  and+ domains = int_range 2 4 in
  {
    cfg;
    profile =
      {
        B.Loadgen.default_profile with
        B.Loadgen.sessions;
        ops;
        interval;
        latency;
        jitter;
      };
    warmup;
    domains;
  }

(* The case as the [podopt record] command that reproduces it.  The
   log records D; [podopt replay --domains 1] and [podopt diff
   --variant all] then run the other checks. *)
let print c =
  let cfg = c.cfg and p = c.profile in
  String.concat " "
    ([
       "podopt record";
       B.Workload.kind_to_string cfg.B.Broker.kind;
       Printf.sprintf "--sessions %d --ops %d --interval %d --warmup %d"
         p.B.Loadgen.sessions p.B.Loadgen.ops p.B.Loadgen.interval c.warmup;
       Printf.sprintf "--latency %d --jitter %d" p.B.Loadgen.latency
         p.B.Loadgen.jitter;
       Printf.sprintf "--shards %d --batch %d --queue-limit %d --policy %s"
         cfg.B.Broker.shards cfg.B.Broker.batch cfg.B.Broker.queue_limit
         (B.Policy.shed_to_string cfg.B.Broker.policy);
       Printf.sprintf "--route %s --arrivals %s --faults %s --checkpoint-every %d"
         (B.Shard_map.route_to_string cfg.B.Broker.route)
         (B.Arrivals.to_string cfg.B.Broker.arrivals)
         (Plan.to_string cfg.B.Broker.faults)
         cfg.B.Broker.checkpoint_every;
       Printf.sprintf "--seed %Ld --domains %d" cfg.B.Broker.seed c.domains;
     ]
    @ if cfg.B.Broker.optimize then [] else [ "--generic" ])

(* Fail unless [got] is byte-identical to [expected]. *)
let same what expected got =
  match Replay.first_diff expected got with
  | None -> ()
  | Some (line, l, r) ->
    QCheck2.Test.fail_reportf "%s differs at line %d:@.  expected: %s@.  got:      %s"
      what line l r

let holds c =
  let serve domains =
    Helpers.serve ~warmup_ops:c.warmup { c.cfg with B.Broker.domains } c.profile
  in
  let one = serve 1 in
  let many = serve c.domains in
  let at_d what = Printf.sprintf "%s at %d domains" what c.domains in
  if one.Helpers.summary.B.Loadgen.truncated then
    QCheck2.Test.fail_report "the run was truncated";
  same (at_d "the serve document") one.Helpers.json many.Helpers.json;
  same (at_d "the snapshot report") one.Helpers.snapshots many.Helpers.snapshots;
  if one.Helpers.summary <> many.Helpers.summary then
    QCheck2.Test.fail_report (at_d "the run summary");
  let log = Record.run ~warmup_ops:c.warmup c.cfg c.profile in
  same "the recorded document" one.Helpers.json log.RL.json;
  let log = RL.of_string (RL.to_string log) in
  let replayed = Replay.run ~domains:c.domains log in
  same (at_d "the replayed document") log.RL.json replayed.Replay.json;
  if replayed.Replay.fault_mismatches > 0 then
    QCheck2.Test.fail_reportf "%d fault draws replayed differently"
      replayed.Replay.fault_mismatches;
  List.iter
    (fun axis ->
      let report = Diff.run axis log in
      if report.Diff.divergence <> None then
        QCheck2.Test.fail_reportf "%a" Diff.pp_report report)
    [ Diff.Optimizer; Diff.Codegen; Diff.Killed ];
  true

let prop_cross_axis =
  QCheck2.Test.make ~name:"any broker config: every identity holds at once"
    ~count:25 ~print gen holds

let suite = [ QCheck_alcotest.to_alcotest prop_cross_axis ]
