(* Trace persistence: save/load round trips, format rejection, and an
   end-to-end offline analysis from a reloaded trace. *)

open Podopt
module Ctp = Podopt_ctp.Ctp

let test_roundtrip () =
  let rt = Ctp.create () in
  Ctp.open_session rt;
  Trace.enable_events rt.Runtime.trace;
  Trace.enable_handlers rt.Runtime.trace [ "SegFromUser"; "Seg2Net" ];
  for i = 1 to 5 do
    Ctp.send rt (Bytes.create (100 * i))
  done;
  Runtime.run rt;
  let text = Trace_io.to_string rt.Runtime.trace in
  let back = Trace_io.of_string text in
  Alcotest.(check int) "entry count" (Trace.length rt.Runtime.trace) (Trace.length back);
  Alcotest.(check bool) "entries equal" true
    (Trace.entries rt.Runtime.trace = Trace.entries back)

let test_mode_tokens () =
  List.iter
    (fun mode ->
      let entry =
        Trace.Event_raised { event = "E"; mode; time = 5; depth = 1 }
      in
      let line = Trace_io.entry_to_line entry in
      Alcotest.(check bool) (Ast.mode_to_string mode) true
        (Trace_io.entry_of_line line = Some entry))
    [ Ast.Sync; Ast.Async; Ast.Timed 123 ]

let test_comments_and_blanks () =
  let t = Trace_io.of_string "# a comment\n\nE 1 0 S Foo\n  \nE 2 1 A Bar\n" in
  Alcotest.(check int) "two entries" 2 (Trace.length t)

let test_rejects_garbage () =
  List.iter
    (fun s ->
      try
        ignore (Trace_io.of_string s);
        Alcotest.failf "expected Format_error for %S" s
      with Lines.Format_error _ -> ())
    [ "X 1 0 S Foo"; "E one 0 S Foo"; "E 1 0 Q Foo"; "E 1 0" ]

let test_rejects_whitespace_names () =
  let entry =
    Trace.Event_raised { event = "bad name"; mode = Ast.Sync; time = 0; depth = 0 }
  in
  try
    ignore (Trace_io.entry_to_line entry);
    Alcotest.fail "expected Format_error"
  with Lines.Format_error _ -> ()

let test_offline_analysis_matches () =
  let rt = Ctp.create () in
  Ctp.open_session rt;
  Trace.enable_events rt.Runtime.trace;
  for i = 1 to 20 do
    Ctp.send rt (Bytes.create (64 + (i * 17 mod 500)))
  done;
  Runtime.run rt;
  let live = Event_graph.of_trace rt.Runtime.trace in
  let reloaded =
    Event_graph.of_trace (Trace_io.of_string (Trace_io.to_string rt.Runtime.trace))
  in
  Alcotest.(check int) "same edge count" (Event_graph.edge_count live)
    (Event_graph.edge_count reloaded);
  List.iter
    (fun (e : Event_graph.edge) ->
      match Event_graph.find_edge reloaded ~src:e.Event_graph.src ~dst:e.Event_graph.dst with
      | Some e' ->
        Alcotest.(check int) "weight" e.Event_graph.weight e'.Event_graph.weight;
        Alcotest.(check int) "sync" e.Event_graph.sync e'.Event_graph.sync
      | None -> Alcotest.fail "edge lost")
    (Event_graph.edges live);
  (* the reloaded trace interns its own event ids, yet its window gives
     the live graph down to every counter and the insertion order *)
  Alcotest.(check bool) "same nodes, in order" true
    (Event_graph.nodes live = Event_graph.nodes reloaded);
  Alcotest.(check bool) "same edges, in order" true
    (Event_graph.edges live = Event_graph.edges reloaded)

let test_file_roundtrip () =
  let rt = Ctp.create () in
  Ctp.open_session rt;
  Trace.enable_events rt.Runtime.trace;
  Ctp.send rt (Bytes.create 256);
  Runtime.run rt;
  let path = Filename.temp_file "podopt" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lines.save path (Trace_io.to_string rt.Runtime.trace);
      let back = Trace_io.of_string (Lines.load path) in
      Alcotest.(check int) "file roundtrip" (Trace.length rt.Runtime.trace)
        (Trace.length back))

(* --- extended CTP configuration (congestion control) -------------------- *)

let test_congestion_window_dynamics () =
  let rt = Ctp.create ~extended:true () in
  Ctp.open_session rt;
  let cwnd () = Ctp.stat rt "cwnd_scaled" in
  let w0 = cwnd () in
  for i = 1 to 40 do
    ignore i;
    Ctp.send rt (Bytes.create 64)
  done;
  Runtime.run rt;
  (* 40 sends: one timeout (seq 17) halves, 39 acks grow additively *)
  Alcotest.(check bool) "acks counted" true (Ctp.stat rt "cc_acks" >= 35);
  Alcotest.(check int) "one loss" 1 (Ctp.stat rt "cc_losses");
  Alcotest.(check bool) "window moved" true (cwnd () <> w0)

let test_extended_config_optimizes_equivalently () =
  let run opt =
    let rt = Ctp.create ~extended:true () in
    Ctp.open_session rt;
    if opt then
      ignore
        (Driver.profile_and_optimize ~threshold:20 rt
           ~workload:(fun () ->
             for _ = 1 to 30 do
               Ctp.send rt (Bytes.create 300)
             done;
             Runtime.run rt));
    Runtime.run rt;
    List.iter
      (fun g -> Runtime.set_global rt g (Value.Int 0))
      [ "seg_seq"; "sent_count"; "acks"; "retrans"; "cc_acks"; "cc_losses"; "inflight" ];
    Runtime.set_global rt "cwnd_scaled" (Value.Int (8 * 1024));
    for i = 1 to 25 do
      Ctp.send rt (Bytes.create (128 + (i * 41 mod 700)))
    done;
    Runtime.run rt;
    (Ctp.stat rt "cc_acks", Ctp.stat rt "cc_losses", Ctp.stat rt "cwnd_scaled",
     Ctp.stat rt "sent_count")
  in
  let a1 = run false and a2 = run true in
  Alcotest.(check bool) (Fmt.str "same congestion state") true (a1 = a2)

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "mode tokens" `Quick test_mode_tokens;
    Alcotest.test_case "comments/blanks" `Quick test_comments_and_blanks;
    Alcotest.test_case "rejects garbage" `Quick test_rejects_garbage;
    Alcotest.test_case "rejects whitespace names" `Quick test_rejects_whitespace_names;
    Alcotest.test_case "offline analysis" `Quick test_offline_analysis_matches;
    Alcotest.test_case "file roundtrip" `Quick test_file_roundtrip;
    Alcotest.test_case "congestion dynamics" `Quick test_congestion_window_dynamics;
    Alcotest.test_case "extended config equivalence" `Quick test_extended_config_optimizes_equivalently;
  ]
