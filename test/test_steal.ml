(* The work-stealing scheduler and its determinism contract.

   Unit cases pin the route codec, the Zipf router's shape, and the
   migration planner's decisions; the property checks that the barrier
   every epoch rides on neither loses nor leaks a round under real
   domain interleavings.  That the whole broker's observable output is
   byte-identical at every domain count, at random Zipf skews, is the
   cross-axis property's job (test_fuzz.ml): stealing is scheduling,
   never semantics.  The replay case closes the loop by checking the
   recorded migration plan (the log's M lines) is re-derived move for
   move. *)

module B = Podopt_broker
module Barrier = Podopt_exec.Barrier
module RL = Podopt.Replay_log
module Record = Podopt.Record
module Replay = Podopt.Replay

(* --- route codec and router shape -------------------------------------- *)

let test_route_codec () =
  let ok s r =
    match B.Shard_map.route_of_string s with
    | Ok r' ->
      Alcotest.(check bool) (s ^ " parses") true (r = r');
      Alcotest.(check string)
        (s ^ " round-trips")
        s
        (B.Shard_map.route_to_string r')
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "hash" B.Shard_map.Hash;
  ok "zipf:1.5" (B.Shard_map.Zipf 1.5);
  ok "zipf:0.75" (B.Shard_map.Zipf 0.75);
  List.iter
    (fun bad ->
      match B.Shard_map.route_of_string bad with
      | Ok _ -> Alcotest.failf "%S accepted" bad
      | Error _ -> ())
    [ "zipf"; "zipf:"; "zipf:0"; "zipf:-1"; "zipf:nan"; "zipf:inf"; "lru"; "" ]

let test_zipf_routing_shape () =
  let shards = 4 in
  let route = B.Shard_map.Zipf 1.2 in
  let counts = Array.make shards 0 in
  for i = 0 to 999 do
    let id = Printf.sprintf "s%03d" i in
    let s = B.Shard_map.route_shard ~route ~shards id in
    Alcotest.(check bool) "in range" true (s >= 0 && s < shards);
    Alcotest.(check int) "stateless and deterministic" s
      (B.Shard_map.route_shard ~route ~shards id);
    counts.(s) <- counts.(s) + 1
  done;
  (* rank order: shard 0 hottest, monotone decreasing pressure.  1000
     draws give enough mass that strict rank inversions would be a
     router bug, not noise. *)
  for s = 0 to shards - 2 do
    Alcotest.(check bool)
      (Printf.sprintf "shard %d hotter than shard %d" s (s + 1))
      true
      (counts.(s) > counts.(s + 1))
  done;
  (* hash routing must not be skewed toward shard 0 like that *)
  let hcounts = Array.make shards 0 in
  for i = 0 to 999 do
    let id = Printf.sprintf "s%03d" i in
    let s = B.Shard_map.route_shard ~route:B.Shard_map.Hash ~shards id in
    hcounts.(s) <- hcounts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      Alcotest.(check bool)
        (Printf.sprintf "hash shard %d near uniform" s)
        true
        (c > 150 && c < 350))
    hcounts

(* The per-id Zipf walk [Shard_map.router] replaced: both CDF sums
   recomputed for every id.  Kept as the router's oracle. *)
let zipf_walk ~s ~shards id =
  let mixed =
    let h = B.Shard_map.hash id in
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xff51afd7ed558ccdL in
    let h = Int64.logxor h (Int64.shift_right_logical h 33) in
    let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
    Int64.logxor h (Int64.shift_right_logical h 33)
  in
  let u = Int64.to_float (Int64.shift_right_logical mixed 11) /. 9007199254740992.0 in
  let total = ref 0.0 in
  for rank = 0 to shards - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (rank + 1)) s)
  done;
  let target = u *. !total in
  let acc = ref 0.0 and chosen = ref (shards - 1) in
  (try
     for rank = 0 to shards - 1 do
       acc := !acc +. (1.0 /. Float.pow (float_of_int (rank + 1)) s);
       if target < !acc then begin
         chosen := rank;
         raise Exit
       end
     done
   with Exit -> ());
  !chosen

let test_router_matches_walk () =
  let ids = List.init 5_000 (Printf.sprintf "s%04d") in
  for shards = 1 to 16 do
    List.iter
      (fun s ->
        let route = B.Shard_map.router ~route:(B.Shard_map.Zipf s) ~shards in
        List.iter
          (fun id ->
            let want = zipf_walk ~s ~shards id in
            if route id <> want then
              Alcotest.failf "zipf:%g, %d shards, %S: router %d, walk %d" s
                shards id (route id) want)
          ids)
      [ 0.5; 1.0; 1.2; 1.4; 2.0 ];
    let route = B.Shard_map.router ~route:B.Shard_map.Hash ~shards in
    List.iter
      (fun id ->
        Alcotest.(check int) "hash router is shard_of"
          (B.Shard_map.shard_of ~shards id) (route id))
      ids
  done;
  Alcotest.check_raises "shards = 0"
    (Invalid_argument "Shard_map.router: shards <= 0") (fun () ->
      ignore (B.Shard_map.router ~route:(B.Shard_map.Zipf 1.0) ~shards:0 : string -> int))

(* --- the migration planner ---------------------------------------------- *)

(* The heaviest worker's summed depth under an ownership map. *)
let max_load ~domains ~depths owner =
  let load = Array.make domains 0 in
  Array.iteri (fun i o -> load.(o) <- load.(o) + depths.(i)) owner;
  Array.fold_left max 0 load

(* Apply a plan, checking each move leaves the shard's current owner
   for another worker in range. *)
let apply_plan ~domains owner moves =
  let owner = Array.copy owner in
  List.iter
    (fun (i, from_w, to_w) ->
      Alcotest.(check int) (Printf.sprintf "shard %d moves off its owner" i)
        owner.(i) from_w;
      Alcotest.(check bool) "destination in range" true
        (to_w >= 0 && to_w < domains && to_w <> from_w);
      owner.(i) <- to_w)
    moves;
  owner

let test_migration_plan () =
  (* Zipf(1.2)-shaped queue depths at the planner's ema scale: the plan
     must strictly lower the heaviest worker's load below the initial
     [i mod domains] ownership *)
  let zipf = [| 512; 223; 137; 97; 74; 60; 50; 42 |] in
  List.iter
    (fun domains ->
      let pinned = Array.init (Array.length zipf) (fun i -> i mod domains) in
      let moves = B.Broker.migration_plan ~domains ~depths:zipf pinned in
      let planned = apply_plan ~domains pinned moves in
      let before = max_load ~domains ~depths:zipf pinned
      and after = max_load ~domains ~depths:zipf planned in
      Alcotest.(check bool)
        (Printf.sprintf "%d domains: heaviest load %d below static %d" domains
           after before)
        true (after < before);
      Alcotest.(check (array int))
        (Printf.sprintf "%d domains: input ownership untouched" domains)
        (Array.init (Array.length zipf) (fun i -> i mod domains))
        pinned)
    [ 2; 4 ];
  (* balanced load: nothing to move *)
  let uniform = Array.make 8 96 in
  List.iter
    (fun domains ->
      let owner = Array.init 8 (fun i -> i mod domains) in
      Alcotest.(check int)
        (Printf.sprintf "%d domains: uniform depths make no moves" domains)
        0
        (List.length (B.Broker.migration_plan ~domains ~depths:uniform owner)))
    [ 1; 2; 4 ]

(* --- property: barrier round reuse ------------------------------------- *)

let prop_barrier_rounds =
  (* one cyclic barrier, many rounds, every party a real domain: after
     R rounds each party has seen exactly R releases and the barrier's
     round counter agrees.  A lost wakeup or round leak wedges or
     miscounts. *)
  let gen = QCheck2.Gen.(tup2 (int_range 2 4) (int_range 1 25)) in
  let print (parties, rounds) =
    Printf.sprintf "parties=%d rounds=%d" parties rounds
  in
  QCheck2.Test.make ~name:"barrier: reused across rounds without leaks"
    ~count:25 ~print gen (fun (parties, rounds) ->
      let b = Barrier.create ~parties in
      let counts = Array.make parties 0 in
      let doms =
        List.init parties (fun p ->
            Domain.spawn (fun () ->
                for _ = 1 to rounds do
                  Barrier.await b;
                  counts.(p) <- counts.(p) + 1
                done))
      in
      List.iter Domain.join doms;
      Barrier.rounds b = rounds && Array.for_all (fun c -> c = rounds) counts)

(* --- replay re-derives the migration plan ------------------------------ *)

let test_replay_migrations () =
  (* record a skewed parallel run cold (no warm-up, so the smoothed
     plan converges inside the measured window and its migrations land
     in the log), then check the M lines are non-trivial, survive the
     text codec, and are re-derived exactly by a replay at the recorded
     domain count *)
  let cfg =
    {
      B.Broker.default_config with
      B.Broker.shards = 8;
      kind = B.Workload.Seccomm;
      optimize = true;
      queue_limit = 256;
      seed = 11L;
      domains = 2;
      route = B.Shard_map.Zipf 1.4;
    }
  in
  let profile =
    {
      B.Loadgen.default_profile with
      B.Loadgen.sessions = 16;
      ops = 10;
      interval = 80;
      spread = 31;
    }
  in
  let log = Record.run ~warmup_ops:0 cfg profile in
  Alcotest.(check bool)
    "the recorded run migrated" true
    (log.RL.migrations <> []);
  let log = RL.of_string (RL.to_string log) in
  let outcome = Replay.run log in
  Alcotest.(check bool) "document byte-identical" true
    (String.equal outcome.Replay.json log.RL.json);
  Alcotest.(check bool) "migration plan re-derived exactly" false
    outcome.Replay.migration_mismatch;
  (* at a different domain count the plan legitimately differs and is
     not compared *)
  let outcome4 = Replay.run ~domains:4 log in
  Alcotest.(check bool) "document still byte-identical at 4 domains" true
    (String.equal outcome4.Replay.json log.RL.json);
  Alcotest.(check bool) "plan not compared across domain counts" false
    outcome4.Replay.migration_mismatch

let suite =
  [
    Alcotest.test_case "route codec" `Quick test_route_codec;
    Alcotest.test_case "zipf router: rank-ordered heat, hash uniform" `Quick
      test_zipf_routing_shape;
    Alcotest.test_case "zipf router equals the per-id CDF walk" `Quick
      test_router_matches_walk;
    Alcotest.test_case "migration plan beats static pinning under zipf" `Quick
      test_migration_plan;
    QCheck_alcotest.to_alcotest prop_barrier_rounds;
    Alcotest.test_case "replay re-derives the recorded migration plan" `Quick
      test_replay_migrations;
  ]
