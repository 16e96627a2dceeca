(* Record/replay: log codec round-trips (qcheck), replay reproduces the
   recorded document byte-for-byte at any domain count, fault draws
   verify against the recording, and the differential oracle finds and
   shrinks a planted handler bug. *)

module B = Podopt_broker
module RL = Podopt.Replay_log
module Record = Podopt.Record
module Replay = Podopt.Replay
module Diff = Podopt.Replay_diff

(* --- log codec round-trip (property) ----------------------------------- *)

let gen_log =
  let open QCheck2.Gen in
  let gen_payload = map Bytes.of_string (string_size ~gen:char (0 -- 12)) in
  let gen_sess phase idx =
    let* index = 0 -- 50 in
    let* start = 0 -- 500 in
    let* interval = 1 -- 300 in
    let* nops = 0 -- 4 in
    let* ops = list_repeat nops gen_payload in
    return
      {
        RL.s_phase = phase;
        s_id = Printf.sprintf "%s%02d" phase idx;
        s_index = index;
        s_start = start;
        s_interval = interval;
        s_ops = Array.of_list ops;
      }
  in
  let rec gen_phase phase n i =
    if i >= n then return []
    else
      let* s = gen_sess phase i in
      let* rest = gen_phase phase n (i + 1) in
      return (s :: rest)
  in
  let* shards = 1 -- 4 in
  let* optimize = bool in
  let* compile = bool in
  let* route =
    oneof
      [
        return B.Shard_map.Hash;
        (* quarter steps are exact binary floats, so the %g text form
           round-trips through route_of_string without drift *)
        map (fun q -> B.Shard_map.Zipf (float_of_int q /. 4.0)) (1 -- 8);
      ]
  in
  let* seed = map Int64.of_int (0 -- 10_000) in
  let* policy = oneofl [ B.Policy.Drop_newest; B.Policy.Drop_oldest ] in
  let* kind = oneofl [ B.Workload.Video; B.Workload.Seccomm ] in
  let* faults =
    oneof
      [
        return Podopt.Faults.none;
        (let* c = 1 -- 1000 in
         return { Podopt.Faults.none with Podopt.Faults.seed = 3L;
                  crash_permille = c });
      ]
  in
  let config =
    {
      B.Broker.default_config with
      B.Broker.shards;
      optimize;
      compile;
      seed;
      policy;
      kind;
      route;
      faults;
    }
  in
  let* profile =
    let* sessions = 1 -- 8 in
    let* ops = 1 -- 8 in
    let* interval = 1 -- 300 in
    let* spread = 1 -- 60 in
    let* latency = 1 -- 80 in
    let* jitter = 0 -- 10 in
    return { B.Loadgen.sessions; ops; interval; spread; latency; jitter }
  in
  let* warmup_ops = 0 -- 16 in
  let* metrics = bool in
  let* nw = 0 -- 3 in
  let* nm = 0 -- 3 in
  let* warm = gen_phase "w" nw 0 in
  let* meas = gen_phase "m" nm 0 in
  let* entries =
    list_size (0 -- 3)
      (let* salt = 0 -- 4 in
       let* kind = oneofl Podopt.Faults.kinds in
       let* bits = list_size (0 -- 8) bool in
       return ((salt, kind), bits))
  in
  (* unique, sorted (salt, kind) keys, as the recorder produces *)
  let fault_draws =
    List.sort compare entries
    |> List.fold_left
         (fun acc ((k, _) as e) ->
           match acc with (k', _) :: _ when k' = k -> acc | _ -> e :: acc)
         []
    |> List.rev
  in
  let* migrations =
    list_size (0 -- 5) (quad (0 -- 30) (0 -- 7) (0 -- 3) (0 -- 3))
  in
  let* jraw = list_size (0 -- 4) (string_size ~gen:printable (0 -- 20)) in
  let jlines =
    List.map (String.map (fun c -> if c = '\n' then ' ' else c)) jraw
  in
  let json = match jlines with [] -> "" | ls -> String.concat "\n" ls ^ "\n" in
  return
    {
      RL.config;
      profile;
      warmup_ops;
      metrics;
      sessions = warm @ meas;
      fault_draws;
      migrations;
      json;
    }

let prop_log_roundtrip =
  QCheck2.Test.make ~name:"log text codec round-trips" ~count:200 gen_log
    (fun log -> RL.of_string (RL.to_string log) = log)

(* --- replay = record ---------------------------------------------------- *)

let profile =
  {
    B.Loadgen.default_profile with
    B.Loadgen.sessions = 4;
    ops = 4;
    interval = 120;
    latency = 50;
    jitter = 3;
  }

let record ?(faults = Podopt.Faults.none) ?(sessions = 4) ?(ops = 4) () =
  let cfg = { B.Broker.default_config with shards = 2; seed = 7L; faults } in
  Record.run ~warmup_ops:12 cfg { profile with B.Loadgen.sessions; ops }

let test_replay_reproduces () =
  let log = record () in
  (* round-trip through the text format first: replaying the decoded log
     proves the file alone reconstructs the run *)
  let log = RL.of_string (RL.to_string log) in
  let o1 = Replay.run ~domains:1 log in
  let o4 = Replay.run ~domains:4 log in
  Alcotest.(check string) "byte-identical at domains 1" log.RL.json o1.Replay.json;
  Alcotest.(check string) "byte-identical at domains 4" log.RL.json o4.Replay.json;
  Alcotest.(check int) "no fault mismatches (d1)" 0 o1.Replay.fault_mismatches;
  Alcotest.(check int) "no fault mismatches (d4)" 0 o4.Replay.fault_mismatches

let test_replay_verifies_fault_draws () =
  let faults =
    { Podopt.Faults.none with Podopt.Faults.seed = 5L; crash_permille = 150;
      drop_permille = 30 }
  in
  let log = record ~faults () in
  Alcotest.(check bool) "recorded some fault draws" true (log.RL.fault_draws <> []);
  let o = Replay.run ~domains:1 log in
  Alcotest.(check string) "faulty run reproduces" log.RL.json o.Replay.json;
  Alcotest.(check int) "every draw matches the recording" 0
    o.Replay.fault_mismatches;
  (* corrupt one recorded stream: the verifier must report it *)
  let broken =
    { log with
      RL.fault_draws =
        List.map
          (fun (k, bits) -> (k, List.map not bits))
          log.RL.fault_draws }
  in
  let o' = Replay.run ~domains:1 broken in
  Alcotest.(check bool) "tampered streams are caught" true
    (o'.Replay.fault_mismatches > 0)

let prop_replay_identity =
  QCheck2.Test.make
    ~name:"replay reproduces the document at domains 1 and 4" ~count:5
    QCheck2.Gen.(triple (1 -- 3) (2 -- 6) (0 -- 1000))
    (fun (shards, sessions, seed) ->
      let cfg =
        { B.Broker.default_config with shards; seed = Int64.of_int seed }
      in
      let log =
        Record.run ~warmup_ops:12 cfg
          { profile with B.Loadgen.sessions; ops = 3 }
      in
      let log = RL.of_string (RL.to_string log) in
      let o1 = Replay.run ~domains:1 log in
      let o4 = Replay.run ~domains:4 log in
      o1.Replay.json = log.RL.json
      && o4.Replay.json = log.RL.json
      && o1.Replay.fault_mismatches = 0
      && o4.Replay.fault_mismatches = 0)

(* --- warm-started runs carry their profile ------------------------------ *)

(* A profile store captured from a short steady run, for warm-start
   recordings. *)
let seed_store () =
  let cfg = { B.Broker.default_config with shards = 2; seed = 7L } in
  let broker = B.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      ignore (B.Loadgen.steady ~warmup_ops:12 broker profile);
      B.Broker.profile_store broker)

let record_warm () =
  let cfg =
    { B.Broker.default_config with shards = 2; seed = 7L;
      profile_in = Some (seed_store ()) }
  in
  Record.run ~warmup_ops:0 cfg profile

let test_replay_warm_run () =
  let log = record_warm () in
  (* the log embeds the profile: it survives the text codec and the
     replayed run warm-starts identically at any domain count *)
  let log = RL.of_string (RL.to_string log) in
  Alcotest.(check bool) "log carries the profile" true
    (log.RL.config.B.Broker.profile_in <> None);
  let o1 = Replay.run ~domains:1 log in
  let o4 = Replay.run ~domains:4 log in
  Alcotest.(check string) "byte-identical at domains 1" log.RL.json o1.Replay.json;
  Alcotest.(check string) "byte-identical at domains 4" log.RL.json o4.Replay.json

let test_replay_profile_tamper () =
  let text = RL.to_string (record_warm ()) in
  (* swap the embedded profile's workload kind: the Y digest no longer
     matches, exactly like a tampered fault stream *)
  let lines = String.split_on_char '\n' text in
  let tampered =
    List.map
      (fun l ->
        if String.length l > 2 && String.sub l 0 2 = "D " then
          String.concat "x" (String.split_on_char 'm' l)
        else l)
      lines
    |> String.concat "\n"
  in
  Alcotest.(check bool) "tamper changed the log" false
    (String.equal text tampered);
  (match RL.of_string tampered with
   | _ -> Alcotest.fail "tampered profile loaded"
   | exception Podopt.Lines.Format_error msg ->
     Alcotest.(check bool)
       (Printf.sprintf "error names the digest (%s)" msg)
       true
       (List.exists
          (fun w -> w = "digest")
          (String.split_on_char ' ' msg)));
  (* untampered text still loads *)
  ignore (RL.of_string text)

let test_previous_version_refused () =
  (* a version-8 log: V 8, S lines without the session index, and an A
     line of link outcomes per session *)
  let v8 =
    RL.to_string (record ())
    |> String.split_on_char '\n'
    |> List.concat_map (fun l ->
           match String.split_on_char ' ' l with
           | [ "V"; _ ] -> [ "V 8" ]
           | [ "S"; phase; id; _index; start; interval; nops ] ->
             [
               String.concat " " [ "S"; phase; id; start; interval; nops ];
               Printf.sprintf "A %s %s 0 0 50" phase id;
             ]
           | _ -> [ l ])
    |> String.concat "\n"
  in
  match RL.of_string v8 with
  | _ -> Alcotest.fail "a version-8 log loaded"
  | exception Podopt.Lines.Format_error msg ->
    Alcotest.(check string) "error names the version"
      "unsupported log version 8 (expected 9)" msg

let test_negative_count_refused () =
  let text = RL.to_string (record ()) in
  let edit_s f =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           match String.split_on_char ' ' l with
           | "S" :: fields -> String.concat " " ("S" :: f fields)
           | _ -> l)
    |> String.concat "\n"
  in
  List.iter
    (fun (expected, edited) ->
      match RL.of_string edited with
      | _ -> Alcotest.failf "loaded a log that should fail with %S" expected
      | exception Podopt.Lines.Format_error msg ->
        Alcotest.(check string) "error names the field" expected msg)
    [
      ( "bad nops -1 (negative)",
        edit_s (function
          | [ p; id; index; start; interval; _ ] -> [ p; id; index; start; interval; "-1" ]
          | fields -> fields) );
      ( "bad index -3 (negative)",
        edit_s (function
          | [ p; id; _; start; interval; nops ] -> [ p; id; "-3"; start; interval; nops ]
          | fields -> fields) );
    ]

(* A shrunk log keeps each session's index, so a kept session replays on
   the open-loop schedule and link delays it drew in the full run, not on
   those of its new position.  The cut is the one Diff's shrinker makes:
   keep one session id in both phases. *)
let test_shrunk_session_keeps_its_draws () =
  let cfg =
    { B.Broker.default_config with
      B.Broker.kind = B.Workload.Chat;
      arrivals = B.Arrivals.Pareto 1.5 }
  in
  let log =
    Record.run cfg
      { B.Loadgen.default_profile with B.Loadgen.sessions = 8; jitter = 9 }
  in
  let shrunk =
    { log with
      RL.profile = { log.RL.profile with B.Loadgen.sessions = 1 };
      sessions = List.filter (fun s -> s.RL.s_id = "s007") log.RL.sessions }
  in
  (* s007's measured horizon and the delays its link gives each op *)
  let draws log =
    let broker = B.Broker.create log.RL.config in
    Fun.protect
      ~finally:(fun () -> B.Broker.shutdown broker)
      (fun () ->
        let s =
          List.find
            (fun s -> B.Session.id s = "s007")
            (Replay.make_sessions broker log "m")
        in
        let delays = ref [] in
        B.Session.pump s ~now:max_int ~rt:()
          ~deliver_event:(fun () ~delay _ -> delays := delay :: !delays);
        (B.Session.horizon s, List.rev !delays))
  in
  let horizon, delays = draws log in
  let horizon', delays' = draws shrunk in
  Alcotest.(check int) "s007's horizon in the full log" 10338 horizon;
  Alcotest.(check int) "the shrunk log's horizon" horizon horizon';
  Alcotest.(check (list int)) "the shrunk log's link delays" delays delays';
  Alcotest.(check bool) "the delays are jittered" true
    (List.length (List.sort_uniq compare delays) > 1)

(* --- differential oracle ------------------------------------------------ *)

let test_diff_clean () =
  let log = record () in
  List.iter
    (fun axis ->
      let r = Diff.run axis log in
      Alcotest.(check bool)
        (Diff.axis_label axis ^ ": no divergence")
        true
        (r.Diff.divergence = None);
      Alcotest.(check bool)
        (Diff.axis_label axis ^ ": observed deliveries")
        true (r.Diff.deliveries > 0))
    [ Diff.Optimizer; Diff.Codegen ]

let test_diff_finds_and_shrinks () =
  let log = record ~sessions:6 ~ops:8 () in
  let r = Diff.run ~tamper:true Diff.Codegen log in
  Alcotest.(check bool) "planted bug diverges" true (r.Diff.divergence <> None);
  match r.Diff.shrink with
  | None -> Alcotest.fail "divergence did not shrink"
  | Some s ->
    Alcotest.(check int) "started from 6 sessions" 6 s.Diff.orig_sessions;
    Alcotest.(check bool)
      (Printf.sprintf "minimal reproducer has <= 2 sessions (%d)"
         (List.length s.Diff.kept))
      true
      (List.length s.Diff.kept <= 2);
    Alcotest.(check bool)
      (Printf.sprintf "ops cap shrank below 8 (%d)" s.Diff.ops_cap)
      true (s.Diff.ops_cap < 8);
    (* the minimal log still reproduces the divergence on its own, even
       after a trip through the text codec *)
    let minimal = RL.of_string (RL.to_string s.Diff.minimal) in
    let r' = Diff.run ~tamper:true Diff.Codegen minimal in
    Alcotest.(check bool) "minimal log still diverges" true
      (r'.Diff.divergence <> None)

let suite =
  [
    Alcotest.test_case "replay reproduces the document" `Quick
      test_replay_reproduces;
    Alcotest.test_case "replay verifies fault draws" `Quick
      test_replay_verifies_fault_draws;
    Alcotest.test_case "warm-started run replays with its profile" `Quick
      test_replay_warm_run;
    Alcotest.test_case "tampered embedded profile is rejected" `Quick
      test_replay_profile_tamper;
    Alcotest.test_case "a previous-version log is refused" `Quick
      test_previous_version_refused;
    Alcotest.test_case "a negative session index or count is refused" `Quick
      test_negative_count_refused;
    Alcotest.test_case "a shrunk session keeps its draws" `Quick
      test_shrunk_session_keeps_its_draws;
    Alcotest.test_case "diff: clean log has no divergence" `Quick
      test_diff_clean;
    Alcotest.test_case "diff: planted bug found and shrunk" `Quick
      test_diff_finds_and_shrinks;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_log_roundtrip; prop_replay_identity ]
