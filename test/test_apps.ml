(* Application-level behaviour: the video player's frame-budget model
   (the Fig. 10 execution semantics) and the messenger measurement
   protocol. *)

open Podopt
module Video = Podopt_apps.Video_player
module Messenger = Podopt_apps.Secure_messenger
module Chat = Podopt_apps.Chat_room

let test_play_duration_when_keeping_up () =
  (* an optimized player at a low rate keeps up: total time stays within
     a percent of the content duration.  (A handful of boundary "misses"
     are model artifacts: a timed ack due just before a frame boundary
     finishes just after it.) *)
  let rt = Video.create () in
  ignore
    (Driver.profile_and_optimize ~threshold:20 rt
       ~workload:(fun () -> Video.profile_workload rt ~frames:150 ()));
  let r = Video.play rt ~rate:10 ~seconds:3 in
  let content = 3 * Video.ticks_per_second in
  Alcotest.(check int) "frames" 30 r.Video.frames;
  Alcotest.(check bool) "only boundary misses" true (r.Video.deadline_misses <= 5);
  Alcotest.(check bool)
    (Printf.sprintf "total %d within 1%% of %d" r.Video.total_time content)
    true
    (r.Video.total_time - content < content / 100)

let test_play_falls_behind_when_overloaded () =
  (* the unoptimized player at 25 fps overruns: total exceeds content *)
  let rt = Video.create () in
  Video.profile_workload rt ~frames:150 ();
  let r = Video.play rt ~rate:25 ~seconds:2 in
  Alcotest.(check bool) "misses happen" true (r.Video.deadline_misses > 10);
  Alcotest.(check bool) "total > content" true
    (r.Video.total_time > 2 * Video.ticks_per_second)

let test_handler_time_below_total () =
  let rt = Video.create () in
  let r = Video.play rt ~rate:15 ~seconds:2 in
  Alcotest.(check bool) "handler <= total" true (r.Video.handler_time <= r.Video.total_time);
  Alcotest.(check bool) "handler > 0" true (r.Video.handler_time > 0)

let test_frame_payload_deterministic () =
  Alcotest.(check bytes) "same frame" (Video.frame_payload 7) (Video.frame_payload 7);
  Alcotest.(check bool) "key frames bigger" true
    (Bytes.length (Video.frame_payload 10) > Bytes.length (Video.frame_payload 11))

let test_messenger_message_deterministic () =
  Alcotest.(check bytes) "deterministic" (Messenger.message ~size:64 3)
    (Messenger.message ~size:64 3);
  Alcotest.(check int) "size respected" 64 (Bytes.length (Messenger.message ~size:64 3))

let test_messenger_measure_rounds () =
  let rt = Messenger.create () in
  let m = Messenger.measure rt ~size:128 ~rounds:10 in
  Alcotest.(check int) "size recorded" 128 m.Messenger.size;
  Alcotest.(check bool) "positive means" true
    (m.Messenger.push_mean > 0.0 && m.Messenger.pop_mean > 0.0);
  (* push and pop are close: same layers, decrypt slightly heavier *)
  Alcotest.(check bool) "pop >= push - epsilon" true
    (m.Messenger.pop_mean >= m.Messenger.push_mean *. 0.8)

(* An optimized chat post allocates the values its merged body computes
   and the argument lists it passes, nothing per call, per global access
   or in the dispatch bookkeeping: a fan-out-7 post stays under 150
   minor words, at exactly the 240 units the cost model charges it. *)
let test_chat_post_allocation () =
  let rt = Chat.create () in
  ignore
    (Driver.profile_and_optimize ~threshold:10 rt
       ~workload:(Chat.profile_workload rt));
  let msg = Chat.message ~fanout:7 ~size:64 1 in
  (* the first post resolves each global site's slot *)
  Chat.push rt msg;
  let opt0 = rt.Runtime.stats.Runtime.optimized_dispatches in
  let u0 = Runtime.now rt in
  let seen0 = Trace.occurrences rt.Runtime.trace in
  let w0 = Gc.minor_words () in
  Chat.push rt msg;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "event recording off" seen0 (Trace.occurrences rt.Runtime.trace);
  Alcotest.(check int) "one optimized dispatch" (opt0 + 1)
    rt.Runtime.stats.Runtime.optimized_dispatches;
  Alcotest.(check int) "units" 240 (Runtime.now rt - u0);
  Alcotest.(check bool)
    (Printf.sprintf "fan-out-7 post: %.0f words <= 150" words)
    true (words <= 150.)

let suite =
  [
    Alcotest.test_case "play keeps up" `Quick test_play_duration_when_keeping_up;
    Alcotest.test_case "play falls behind" `Quick test_play_falls_behind_when_overloaded;
    Alcotest.test_case "handler below total" `Quick test_handler_time_below_total;
    Alcotest.test_case "frame payload deterministic" `Quick test_frame_payload_deterministic;
    Alcotest.test_case "message deterministic" `Quick test_messenger_message_deterministic;
    Alcotest.test_case "measure protocol" `Quick test_messenger_measure_rounds;
    Alcotest.test_case "chat post allocation" `Quick test_chat_post_allocation;
  ]
