(* lib/exec tests: the reusable round barrier and the domain pool the
   broker drains on.  Cross-domain cases use real Domain.spawn so both
   handoff paths — the spin on the atomic generation and the park on
   the condition variable — are exercised, not just the single-domain
   fast path.  Pool epochs only write per-slot or per-lane arrays; every
   assertion runs on the caller after the epoch (Alcotest is not
   domain-safe). *)

module Barrier = Podopt_exec.Barrier
module Pool = Podopt_exec.Pool

(* --- barrier ----------------------------------------------------------- *)

let test_barrier_rounds () =
  let parties = 4 and rounds = 50 in
  let b = Barrier.create ~parties in
  Alcotest.(check int) "parties" parties (Barrier.parties b);
  let hits = Array.make parties 0 in
  let workers =
    List.init parties (fun w ->
        Domain.spawn (fun () ->
            for _ = 1 to rounds do
              hits.(w) <- hits.(w) + 1;
              Barrier.await b
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "rounds completed" rounds (Barrier.rounds b);
  Array.iteri
    (fun w h -> Alcotest.(check int) (Printf.sprintf "worker %d" w) rounds h)
    hits

(* [rounds] back-to-back rounds at [parties], each party a real domain.
   After its k-th [await] a party must read [rounds = k]: a skipped or
   double-counted release would read more or less, because round k+1
   cannot complete before this party arrives for it.  [pause ~party ~round]
   runs before each arrival; a pause past the spin budget forces the
   other parties onto the park path.  Domains only count mismatches;
   the assertions run after the join. *)
let soak ~parties ~rounds ~pause =
  let b = Barrier.create ~parties in
  let bad = Array.make parties 0 and last = Array.make parties 0 in
  let workers =
    List.init parties (fun p ->
        Domain.spawn (fun () ->
            for k = 1 to rounds do
              pause ~party:p ~round:k;
              Barrier.await b;
              let r = Barrier.rounds b in
              if r <> k || r <= last.(p) then bad.(p) <- bad.(p) + 1;
              last.(p) <- r
            done))
  in
  List.iter Domain.join workers;
  Alcotest.(check int) "rounds completed" rounds (Barrier.rounds b);
  Array.iteri
    (fun p n ->
      Alcotest.(check int) (Printf.sprintf "party %d: rounds read out of step" p) 0 n;
      Alcotest.(check int) (Printf.sprintf "party %d: last round" p) rounds last.(p))
    bad

(* Busy-wait [us] microseconds of wall time on the calling domain. *)
let stall us =
  let until = Unix.gettimeofday () +. (float_of_int us /. 1e6) in
  while Unix.gettimeofday () < until do
    Domain.cpu_relax ()
  done

let test_barrier_spin_soak () =
  List.iter
    (fun parties -> soak ~parties ~rounds:10_000 ~pause:(fun ~party:_ ~round:_ -> ()))
    [ 2; 3 ]

let test_barrier_park_soak () =
  (* every 50th round one party (in turn) arrives ~1 ms late, far past
     the spin budget, so the others park and must be woken *)
  List.iter
    (fun parties ->
      soak ~parties ~rounds:10_000 ~pause:(fun ~party ~round ->
          if round mod 50 = 0 && (round / 50) mod parties = party then stall 1_000))
    [ 2; 3 ]

let test_barrier_invalid () =
  Alcotest.check_raises "parties 0"
    (Invalid_argument "Barrier.create: parties <= 0") (fun () ->
      ignore (Barrier.create ~parties:0))

(* --- pool -------------------------------------------------------------- *)

(* [n] items, one per slot. *)
let items n = Array.init n Fun.id

let expect_failure what f =
  match f () with
  | () -> Alcotest.failf "%s: expected the epoch to raise" what
  | exception e -> e

let test_pool_runs_each_worker () =
  (* one item per lane, each parked on a [domains]-party barrier until
     all are claimed: a lane holding an item cannot claim another, so
     every lane — the caller as lane 0 included — runs exactly one item
     per epoch *)
  let domains = 3 and epochs = 20 in
  let pool = Pool.create ~domains in
  Alcotest.(check int) "size" domains (Pool.size pool);
  let all_claimed = Barrier.create ~parties:domains in
  let counts = Array.make domains 0 in
  for _ = 1 to epochs do
    Pool.run_steal pool (items domains) (fun ~worker ~slot:_ _ ->
        counts.(worker) <- counts.(worker) + 1;
        Barrier.await all_claimed)
  done;
  Pool.shutdown pool;
  Array.iteri
    (fun w c ->
      Alcotest.(check int) (Printf.sprintf "worker %d epochs" w) epochs c)
    counts

let test_pool_propagates_exception () =
  let pool = Pool.create ~domains:2 in
  Alcotest.check_raises "item failure reaches the caller" (Failure "boom")
    (fun () ->
      Pool.run_steal pool (items 4) (fun ~worker:_ ~slot:_ x ->
          if x = 1 then failwith "boom"));
  (* the epoch still completed for everyone: the pool stays usable *)
  let ran = Array.make 4 0 in
  Pool.run_steal pool (items 4) (fun ~worker:_ ~slot:_ x -> ran.(x) <- 1);
  Alcotest.(check (array int)) "pool survives a failing epoch" [| 1; 1; 1; 1 |]
    ran;
  Pool.shutdown pool

let test_pool_failure_latch () =
  (* the recovery supervisor leans on this: a raising item must not
     wedge the epoch barrier, and the pool must stay reusable across
     repeated failing epochs.  Every item bumps its slot before one of
     them raises, so slot counts prove the epoch completed for everyone
     even when the epoch re-raised. *)
  let domains = 3 and n = 12 in
  let pool = Pool.create ~domains in
  let runs = Array.make n 0 in
  for epoch = 1 to 5 do
    (match
       expect_failure (Printf.sprintf "epoch %d" epoch) (fun () ->
           Pool.run_steal pool (items n) (fun ~worker:_ ~slot:_ x ->
               runs.(x) <- runs.(x) + 1;
               if x = epoch then failwith "epoch bomb"))
     with
    | Failure _ -> ()
    | e -> Alcotest.failf "expected the bare Failure, got %s" (Printexc.to_string e));
    Array.iteri
      (fun x c ->
        Alcotest.(check int)
          (Printf.sprintf "item %d completed epoch %d" x epoch)
          epoch c)
      runs
  done;
  (* a clean epoch afterwards still runs every item *)
  Pool.run_steal pool (items n) (fun ~worker:_ ~slot:_ x ->
      runs.(x) <- runs.(x) + 1);
  Array.iteri
    (fun x c -> Alcotest.(check int) (Printf.sprintf "item %d final" x) 6 c)
    runs;
  Pool.shutdown pool

let test_pool_simultaneous_failures () =
  (* two items raise in the same epoch: exactly one exception latches
     and re-raises, wrapped in [Epoch_failures] carrying the count of
     the suppressed other — nothing is silently dropped.  One item per
     lane parked on a barrier splits arming from raising, so both
     failures genuinely race on different lanes. *)
  let domains = 3 in
  let pool = Pool.create ~domains in
  let armed = Barrier.create ~parties:domains in
  (match
     expect_failure "simultaneous" (fun () ->
         Pool.run_steal pool (items domains) (fun ~worker:_ ~slot:_ x ->
             Barrier.await armed;
             if x <> 0 then failwith "simultaneous bomb"))
   with
  | Pool.Epoch_failures (Failure msg, suppressed) ->
    Alcotest.(check string) "latched failure" "simultaneous bomb" msg;
    Alcotest.(check int) "one failure latched, one suppressed" 1 suppressed
  | e -> Alcotest.failf "expected Epoch_failures, got %s" (Printexc.to_string e));
  (* a single failure still surfaces unwrapped *)
  (match
     expect_failure "solo" (fun () ->
         Pool.run_steal pool (items domains) (fun ~worker:_ ~slot:_ x ->
             if x = 1 then failwith "solo bomb"))
   with
  | Failure msg -> Alcotest.(check string) "bare failure" "solo bomb" msg
  | e -> Alcotest.failf "expected the bare Failure, got %s" (Printexc.to_string e));
  (* and the pool is still fully usable *)
  let ran = Array.make domains 0 in
  Pool.run_steal pool (items domains) (fun ~worker:_ ~slot:_ x ->
      ran.(x) <- ran.(x) + 1);
  Array.iteri
    (fun x c -> Alcotest.(check int) (Printf.sprintf "item %d ran" x) 1 c)
    ran;
  Pool.shutdown pool

let test_pool_run_steal () =
  (* every item of the frozen run queue is claimed exactly once, whatever
     the racy claim interleaving; helpers only record what they saw *)
  let domains = 3 and n = 100 in
  let pool = Pool.create ~domains in
  let claims = Array.make n 0 and slots = Array.make n (-1)
  and lanes = Array.make n (-1) in
  Pool.run_steal pool (items n) (fun ~worker ~slot x ->
      claims.(x) <- claims.(x) + 1;
      slots.(x) <- slot;
      lanes.(x) <- worker);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "item %d claimed once" i) 1 c;
      Alcotest.(check int) (Printf.sprintf "item %d slot" i) i slots.(i);
      Alcotest.(check bool)
        (Printf.sprintf "item %d lane in range" i)
        true
        (lanes.(i) >= 0 && lanes.(i) < domains))
    claims;
  (* a failing item raises after the epoch completes; the rest of the
     queue still drains exactly once *)
  let claims = Array.make n 0 in
  (match
     expect_failure "item bomb" (fun () ->
         Pool.run_steal pool (items n) (fun ~worker:_ ~slot:_ x ->
             claims.(x) <- claims.(x) + 1;
             if x = 37 then failwith "item bomb"))
   with
  | Failure msg -> Alcotest.(check string) "item failure" "item bomb" msg
  | e -> Alcotest.failf "single failure must surface unwrapped, got %s"
           (Printexc.to_string e));
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "item %d claimed once" i) 1 c)
    claims;
  (* an empty queue is a clean epoch *)
  let touched = ref false in
  Pool.run_steal pool [||] (fun ~worker:_ ~slot:_ _ -> touched := true);
  Alcotest.(check bool) "empty epoch runs nothing" false !touched;
  Pool.shutdown pool

let test_pool_single_domain () =
  (* one domain spawns no helper: the caller runs every slot in order *)
  let pool = Pool.create ~domains:1 in
  Alcotest.(check int) "size" 1 (Pool.size pool);
  let seen = ref [] in
  Pool.run_steal pool (items 5) (fun ~worker ~slot _ ->
      seen := (worker, slot) :: !seen);
  Alcotest.(check (list (pair int int)))
    "caller claims left to right"
    [ (0, 0); (0, 1); (0, 2); (0, 3); (0, 4) ]
    (List.rev !seen);
  Pool.shutdown pool;
  Alcotest.check_raises "domains 0"
    (Invalid_argument "Pool.create: domains <= 0") (fun () ->
      ignore (Pool.create ~domains:0))

let test_pool_shutdown () =
  let pool = Pool.create ~domains:2 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run_steal: pool is shut down") (fun () ->
      Pool.run_steal pool (items 1) (fun ~worker:_ ~slot:_ _ -> ()))

let test_pool_reuses_helpers () =
  (* helpers are never joined: once a pool has handed its helpers back,
     later pools borrow them and spawn none (a spawned domain's id is
     above every earlier domain's) *)
  let helper_ids domains =
    let pool = Pool.create ~domains in
    let all_claimed = Barrier.create ~parties:domains in
    let ids = Array.make domains 0 in
    Pool.run_steal pool (items domains) (fun ~worker ~slot:_ _ ->
        ids.(worker) <- (Domain.self () :> int);
        Barrier.await all_claimed);
    Pool.shutdown pool;
    List.tl (Array.to_list ids)
  in
  ignore (helper_ids 3);
  let fresh = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
  for _ = 1 to 5 do
    List.iter
      (fun id ->
        Alcotest.(check bool) (Printf.sprintf "helper %d spawned earlier" id) true (id < fresh))
      (helper_ids 3)
  done

let test_pool_partition_sum () =
  (* the broker's exact usage: each item owns one cell, mutated by
     whichever lane claims it and summed after the join *)
  let domains = 4 and cells = 10 in
  let pool = Pool.create ~domains in
  let slots = Array.make cells 0 in
  for epoch = 1 to 5 do
    Pool.run_steal pool (items cells) (fun ~worker:_ ~slot:_ i ->
        slots.(i) <- slots.(i) + epoch)
  done;
  Pool.shutdown pool;
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) 15 v)
    slots

let suite =
  [
    Alcotest.test_case "barrier: cyclic rounds" `Quick test_barrier_rounds;
    Alcotest.test_case "barrier: 10k back-to-back rounds (spin path)" `Quick
      test_barrier_spin_soak;
    Alcotest.test_case "barrier: 10k rounds with late peers (park path)" `Quick
      test_barrier_park_soak;
    Alcotest.test_case "barrier: invalid" `Quick test_barrier_invalid;
    Alcotest.test_case "pool: every worker, every epoch" `Quick
      test_pool_runs_each_worker;
    Alcotest.test_case "pool: exception propagation" `Quick
      test_pool_propagates_exception;
    Alcotest.test_case "pool: failing epochs complete and pool stays usable"
      `Quick test_pool_failure_latch;
    Alcotest.test_case "pool: simultaneous failures are counted, not dropped"
      `Quick test_pool_simultaneous_failures;
    Alcotest.test_case "pool: stealing run queue claims each item once"
      `Quick test_pool_run_steal;
    Alcotest.test_case "pool: one domain runs on the caller alone" `Quick
      test_pool_single_domain;
    Alcotest.test_case "pool: shutdown" `Quick test_pool_shutdown;
    Alcotest.test_case "pool: later pools reuse the helpers" `Quick
      test_pool_reuses_helpers;
    Alcotest.test_case "pool: partitioned mutation" `Quick
      test_pool_partition_sum;
  ]
