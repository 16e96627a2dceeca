open Podopt

let seq_of_names names = List.map (fun n -> (n, Ast.Sync)) names

let test_graphbuilder_weights () =
  (* A B A B A C : edges AB(2) BA(2) AC(1) *)
  let g = Event_graph.build (seq_of_names [ "A"; "B"; "A"; "B"; "A"; "C" ]) in
  let w src dst =
    match Event_graph.find_edge g ~src ~dst with
    | Some e -> e.Event_graph.weight
    | None -> 0
  in
  Alcotest.(check int) "AB" 2 (w "A" "B");
  Alcotest.(check int) "BA" 2 (w "B" "A");
  Alcotest.(check int) "AC" 1 (w "A" "C");
  Alcotest.(check int) "no CA" 0 (w "C" "A");
  Alcotest.(check int) "edges" 3 (Event_graph.edge_count g)

let test_total_weight_invariant () =
  let names = [ "X"; "Y"; "X"; "Z"; "Z"; "Y"; "X" ] in
  let g = Event_graph.build (seq_of_names names) in
  Alcotest.(check int) "sum of weights = n-1" (List.length names - 1)
    (Event_graph.total_weight g)

let test_mode_tracking () =
  let g =
    Event_graph.build
      [ ("A", Ast.Sync); ("B", Ast.Async); ("A", Ast.Sync); ("B", Ast.Sync) ]
  in
  match Event_graph.find_edge g ~src:"A" ~dst:"B" with
  | Some e ->
    Alcotest.(check int) "sync count" 1 e.Event_graph.sync;
    Alcotest.(check int) "async count" 1 e.Event_graph.async;
    Alcotest.(check bool) "mixed edge not pure sync" false (Event_graph.edge_is_sync e)
  | None -> Alcotest.fail "edge missing"

let test_reduce_threshold () =
  let seq =
    List.concat (List.init 10 (fun _ -> [ "A"; "B" ])) @ [ "A"; "C" ]
  in
  let g = Event_graph.build (seq_of_names seq) in
  let r = Reduce.reduce g ~threshold:5 in
  Alcotest.(check bool) "hot edge kept" true
    (Event_graph.find_edge r ~src:"A" ~dst:"B" <> None);
  Alcotest.(check bool) "cold edge dropped" true
    (Event_graph.find_edge r ~src:"A" ~dst:"C" = None);
  Alcotest.(check bool) "isolated node dropped" true
    (not (Hashtbl.mem r.Event_graph.nodes "C"))

let test_linear_paths () =
  (* A -> B -> C and D -> B makes B a merge point: no path through B *)
  let g = Event_graph.create () in
  Event_graph.add_edge g ~src:"A" ~dst:"B" Ast.Sync;
  Event_graph.add_edge g ~src:"B" ~dst:"C" Ast.Sync;
  Event_graph.add_edge g ~src:"D" ~dst:"B" Ast.Sync;
  let paths = Paths.linear_paths g in
  Alcotest.(check bool) "B->C is linear" true (List.mem [ "B"; "C" ] paths);
  Alcotest.(check bool) "no A->B->C path (B has 2 preds)" false
    (List.mem [ "A"; "B"; "C" ] paths)

let test_linear_path_simple_chain () =
  let g = Event_graph.create () in
  Event_graph.add_edge g ~src:"A" ~dst:"B" Ast.Sync;
  Event_graph.add_edge g ~src:"B" ~dst:"C" Ast.Sync;
  Event_graph.add_edge g ~src:"C" ~dst:"D" Ast.Sync;
  Alcotest.(check (list (list string))) "single maximal path"
    [ [ "A"; "B"; "C"; "D" ] ] (Paths.linear_paths g)

let test_path_weight () =
  let g =
    Event_graph.build
      (seq_of_names (List.concat (List.init 3 (fun _ -> [ "A"; "B"; "C" ]))))
  in
  (* the sequence A B C A B C A B C has AB=3, BC=3, CA=2 *)
  Alcotest.(check int) "min edge weight" 3 (Paths.path_weight g [ "A"; "B"; "C" ])

let test_path_weight_exact () =
  let g = Event_graph.build (seq_of_names [ "A"; "B"; "C"; "A"; "B" ]) in
  Alcotest.(check int) "AB=2 BC=1 -> weight 1" 1 (Paths.path_weight g [ "A"; "B"; "C" ]);
  Alcotest.(check int) "missing edge -> 0" 0 (Paths.path_weight g [ "A"; "C" ])

let test_cycle_handling () =
  (* self-loop and 2-cycles must not hang path/chain extraction *)
  let g = Event_graph.build (seq_of_names [ "A"; "A"; "A"; "B"; "A" ]) in
  let _ = Paths.linear_paths g in
  let _ = Chains.find g in
  ()

(* --- the trace window against GraphBuilder -------------------------------- *)

type step = Occ of int * Ast.mode * int | Clear | Restart

let pp_step = function
  | Occ (e, m, d) -> Printf.sprintf "E%d %s@%d" e (Ast.mode_to_string m) d
  | Clear -> "clear"
  | Restart -> "restart"

let gen_step =
  QCheck2.Gen.(
    frequency
      [
        ( 12,
          map3
            (fun e m d -> Occ (e, m, d))
            (* ten events: the window's tables (8 ids at first) grow
               mid-window *)
            (frequency [ (4, int_range 0 2); (1, int_range 3 9) ])
            (oneofl [ Ast.Sync; Ast.Async; Ast.Timed 5 ])
            (int_range 0 2) );
        (1, pure Clear);
        (1, pure Restart);
      ])

let graph_counts g =
  ( List.sort compare
      (List.map
         (fun (n : Event_graph.node) ->
           (n.name, n.occurrences, n.raised_sync, n.raised_async, n.raised_timed))
         (Event_graph.nodes g)),
    List.sort compare
      (List.map
         (fun (e : Event_graph.edge) -> (e.src, e.dst, e.weight, e.sync, e.async, e.timed))
         (Event_graph.edges g)) )

(* Occurrences recorded into an adaptive controller's trace, with random
   clear points, absorbs wherever the window passes a random
   [max_trace], and restarts: the controller saved and restored into a
   fresh runtime that gave some event names other ids.  After every
   step: the window's graph is [build_seq] of the segment since the
   last clear or absorb, down to the order its nodes and edges iterate
   in (across a restart too, so its first occurrence adds the edge from
   the last one before it); and the cumulative profile is the merge of
   the absorbed segments' folds plus the live one's. *)
let prop_window_is_graphbuilder =
  QCheck2.Test.make ~name:"trace window equals graphbuilder" ~count:300
    ~print:(fun (m, steps) ->
      Printf.sprintf "max_trace %d: %s" m (String.concat "; " (List.map pp_step steps)))
    QCheck2.Gen.(pair (int_range 1 12) (list_size (int_range 0 120) gen_step))
    (fun (max_trace, steps) ->
      let policy =
        (* no threshold is reachable, so [tick] never installs a plan *)
        { Adaptive.default_policy with
          Adaptive.min_trace = max_trace; max_trace; threshold = max_int;
          fallback_limit = max_int }
      in
      let rt = ref (Runtime.create ()) in
      let ctl = ref (Adaptive.create ~policy !rt) in
      let segment = ref [] and absorbed = ref [] and seen = ref 0 in
      let fold seg = Event_graph.build_seq (List.rev seg) in
      List.for_all
        (fun step ->
          (match step with
           | Clear ->
             Trace.clear !rt.Runtime.trace;
             segment := []
           | Restart ->
             let saved = Adaptive.save !ctl in
             let rt' = Runtime.create () in
             for e = 9 downto 5 do
               ignore (Runtime.event rt' (Printf.sprintf "E%d" e))
             done;
             let ctl' = Adaptive.create ~policy rt' in
             Adaptive.restore ctl' saved;
             rt := rt';
             ctl := ctl'
           | Occ (e, mode, depth) ->
             let ev = Runtime.event !rt (Printf.sprintf "E%d" e) in
             Trace.record_event !rt.Runtime.trace ev ~mode ~time:0 ~depth;
             segment := (ev.Event.name, mode, depth) :: !segment;
             ignore (Adaptive.tick !ctl);
             if List.length !segment > max_trace then begin
               absorbed := fold !segment :: !absorbed;
               seen := !seen + List.length !segment;
               segment := []
             end);
          let trace = !rt.Runtime.trace in
          let window = Event_graph.of_trace trace and want = fold !segment in
          Event_graph.nodes window = Event_graph.nodes want
          && Event_graph.edges window = Event_graph.edges want
          && Trace.occurrences trace = List.length !segment
          && graph_counts (Adaptive.cumulative_profile !ctl)
             = graph_counts (Event_graph.merge_all (want :: !absorbed))
          && Adaptive.profile_trace_entries !ctl = !seen + List.length !segment)
        steps)

let suite =
  [
    Alcotest.test_case "graphbuilder weights" `Quick test_graphbuilder_weights;
    Alcotest.test_case "total weight invariant" `Quick test_total_weight_invariant;
    Alcotest.test_case "mode tracking" `Quick test_mode_tracking;
    Alcotest.test_case "reduce threshold" `Quick test_reduce_threshold;
    Alcotest.test_case "linear paths" `Quick test_linear_paths;
    Alcotest.test_case "linear simple chain" `Quick test_linear_path_simple_chain;
    Alcotest.test_case "path weight" `Quick test_path_weight;
    Alcotest.test_case "path weight exact" `Quick test_path_weight_exact;
    Alcotest.test_case "cycles no hang" `Quick test_cycle_handling;
    QCheck_alcotest.to_alcotest prop_window_is_graphbuilder;
  ]
