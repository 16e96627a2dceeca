(* Sec. 5 extensions: dominator analysis, deferred pair execution, and
   on-line adaptive re-optimization. *)

open Podopt

(* --- dominators -------------------------------------------------------- *)

let graph_of edges =
  let g = Event_graph.create () in
  List.iter (fun (a, b) -> Event_graph.add_edge g ~src:a ~dst:b Ast.Sync) edges;
  g

let test_dominators_diamond () =
  (* R -> A -> B, R -> A -> C, B -> D, C -> D: A dominates everything
     below R; neither B nor C dominates D *)
  let g = graph_of [ ("R", "A"); ("A", "B"); ("A", "C"); ("B", "D"); ("C", "D") ] in
  let d = Dominators.compute g ~root:"R" in
  Alcotest.(check bool) "A dom D" true (Dominators.dominates d ~dominator:"A" ~node:"D");
  Alcotest.(check bool) "B not dom D" false
    (Dominators.dominates d ~dominator:"B" ~node:"D");
  Alcotest.(check (option string)) "idom D" (Some "A") (Dominators.immediate_dominator d "D");
  Alcotest.(check (option string)) "idom A" (Some "R") (Dominators.immediate_dominator d "A");
  Alcotest.(check (option string)) "idom root" None (Dominators.immediate_dominator d "R")

let test_dominators_chain () =
  let g = graph_of [ ("R", "A"); ("A", "B"); ("B", "C") ] in
  let d = Dominators.compute g ~root:"R" in
  Alcotest.(check (list string)) "dominators of C" [ "A"; "B"; "C"; "R" ]
    (Dominators.dominators d "C");
  let pairs = Dominators.correlated_pairs d in
  Alcotest.(check bool) "A before C correlated" true (List.mem ("A", "C") pairs)

let test_dominators_cycle () =
  (* R -> A -> B -> A: the loop must not prevent convergence *)
  let g = graph_of [ ("R", "A"); ("A", "B"); ("B", "A") ] in
  let d = Dominators.compute g ~root:"R" in
  Alcotest.(check bool) "A dom B" true (Dominators.dominates d ~dominator:"A" ~node:"B");
  Alcotest.(check bool) "B not dom A" false
    (Dominators.dominates d ~dominator:"B" ~node:"A")

let test_dominators_unreachable () =
  let g = graph_of [ ("R", "A"); ("X", "Y") ] in
  let d = Dominators.compute g ~root:"R" in
  Alcotest.(check (list string)) "unreachable empty" [] (Dominators.dominators d "Y")

(* --- deferral ----------------------------------------------------------- *)

let defer_program =
  {|
handler a1(x) { global a_sum = global a_sum + x; }
handler a2(x) { global a_runs = global a_runs + 1; }
handler b1(x) { global b_sum = global b_sum + x + global a_sum; emit("b", x); }
handler c1(x) { global c_sum = global c_sum + x * 2; emit("c", x); }
handler noisy(x) { raise sync Other(x); }
handler other(x) { emit("other", x); }
|}

let defer_setup () =
  let rt = Runtime.create ~program:(Parse.program defer_program) () in
  List.iter
    (fun g -> Runtime.set_global rt g (Value.Int 0))
    [ "a_sum"; "a_runs"; "b_sum"; "c_sum" ];
  Runtime.bind rt ~event:"DA" (Handler.hir' "a1");
  Runtime.bind rt ~event:"DA" (Handler.hir' "a2");
  Runtime.bind rt ~event:"DB" (Handler.hir' "b1");
  Runtime.bind rt ~event:"DC" (Handler.hir' "c1");
  Runtime.bind rt ~event:"Noisy" (Handler.hir' "noisy");
  Runtime.bind rt ~event:"Other" (Handler.hir' "other");
  rt

let snapshot rt =
  List.map (fun g -> Runtime.get_global rt g) [ "a_sum"; "a_runs"; "b_sum"; "c_sum" ]

let test_defer_equivalence () =
  let script rt =
    for i = 1 to 50 do
      Runtime.raise_sync rt "DA" [ Value.Int i ];
      Runtime.raise_sync rt (if i mod 2 = 0 then "DB" else "DC") [ Value.Int i ]
    done;
    Runtime.run rt
  in
  let rt1 = defer_setup () in
  script rt1;
  let rt2 = defer_setup () in
  Defer.install rt2 ~event:"DA" ~followers:[ "DB"; "DC" ];
  script rt2;
  List.iter2
    (fun a b -> Alcotest.(check Helpers.value) "same state" a b)
    (snapshot rt1) (snapshot rt2);
  Helpers.check_emits "same emits" (Runtime.emits rt1) (Runtime.emits rt2);
  Alcotest.(check int) "pairs used" 50 rt2.Runtime.stats.Runtime.deferred_pairs

let test_defer_flush_on_unknown_follower () =
  let rt = defer_setup () in
  Defer.install rt ~event:"DA" ~followers:[ "DB" ];
  Runtime.raise_sync rt "DA" [ Value.Int 5 ];
  (* DC has no pair: DA must flush first, then DC runs *)
  Runtime.raise_sync rt "DC" [ Value.Int 3 ];
  Alcotest.(check Helpers.value) "a_sum flushed" (Value.Int 5)
    (Runtime.get_global rt "a_sum");
  Alcotest.(check Helpers.value) "c ran" (Value.Int 6) (Runtime.get_global rt "c_sum");
  Alcotest.(check int) "flush counted" 1 rt.Runtime.stats.Runtime.deferred_flushes

let test_defer_flush_at_run_end () =
  let rt = defer_setup () in
  Defer.install rt ~event:"DA" ~followers:[ "DB" ];
  Runtime.raise_sync rt "DA" [ Value.Int 9 ];
  Alcotest.(check Helpers.value) "still deferred" (Value.Int 0)
    (Runtime.get_global rt "a_sum");
  Runtime.run rt;
  Alcotest.(check Helpers.value) "flushed by run" (Value.Int 9)
    (Runtime.get_global rt "a_sum")

let test_defer_rejects_raising_handlers () =
  let rt = defer_setup () in
  (try
     Defer.install rt ~event:"Noisy" ~followers:[ "DB" ];
     Alcotest.fail "expected Not_deferrable"
   with Defer.Not_deferrable _ -> ())

let test_defer_cheaper_than_generic () =
  let cost deferred =
    let rt = defer_setup () in
    if deferred then Defer.install rt ~event:"DA" ~followers:[ "DB"; "DC" ];
    Runtime.reset_measurements rt;
    for i = 1 to 200 do
      Runtime.raise_sync rt "DA" [ Value.Int i ];
      Runtime.raise_sync rt (if i mod 2 = 0 then "DB" else "DC") [ Value.Int i ]
    done;
    Runtime.run rt;
    Runtime.total_handler_time rt
  in
  let t1 = cost false and t2 = cost true in
  Alcotest.(check bool) (Printf.sprintf "deferred cheaper (%d < %d)" t2 t1) true (t2 < t1)

(* --- adaptive re-optimization ------------------------------------------- *)

let adaptive_program =
  {|
handler w1(x) { global n1 = global n1 + x; }
handler w2(x) { global n2 = global n2 + 1; }
handler w3(x) { global n3 = global n3 + 2; }
|}

let adaptive_setup () =
  let rt = Runtime.create ~program:(Parse.program adaptive_program) () in
  List.iter (fun g -> Runtime.set_global rt g (Value.Int 0)) [ "n1"; "n2"; "n3" ];
  Runtime.bind rt ~event:"W" (Handler.hir' "w1");
  Runtime.bind rt ~event:"W" (Handler.hir' "w2");
  rt

let test_adaptive_reoptimizes_after_rebind () =
  let rt = adaptive_setup () in
  let policy =
    { Adaptive.default_policy with Adaptive.fallback_limit = 10; min_trace = 50;
      threshold = 20 }
  in
  let ctl = Adaptive.create ~policy rt in
  let burst () =
    for i = 1 to 100 do
      Runtime.raise_sync rt "W" [ Value.Int i ];
      ignore (Adaptive.tick ctl)
    done
  in
  burst ();
  (* first optimization should have kicked in from the live trace *)
  ignore (Adaptive.reoptimize ctl);
  Runtime.reset_measurements rt;
  burst ();
  Alcotest.(check int) "steady: no fallbacks" 0 rt.Runtime.stats.Runtime.fallbacks;
  (* reconfigure: guards invalidate, fallbacks accumulate, the controller
     reinstalls *)
  Runtime.bind rt ~event:"W" (Handler.hir' "w3");
  Runtime.reset_measurements rt;
  burst ();
  Alcotest.(check bool) "reoptimized at least twice" true
    (Adaptive.reoptimizations ctl >= 2);
  Runtime.reset_measurements rt;
  burst ();
  Alcotest.(check int) "fast path restored" 0 rt.Runtime.stats.Runtime.fallbacks

let test_adaptive_absorbs_overflowing_window () =
  (* Past [max_trace], [tick] absorbs the whole window into the
     cumulative profile and starts a new one: counters cannot drop their
     oldest half, and no occurrence is lost. *)
  let rt = adaptive_setup () in
  let policy =
    (* min_trace = max_trace, so re-optimization does not trigger during
       the overflow (the raises run without ticks) *)
    { Adaptive.default_policy with
      Adaptive.fallback_limit = max_int; min_trace = 100; max_trace = 100; threshold = 20 }
  in
  let ctl = Adaptive.create ~policy rt in
  let trace = rt.Runtime.trace in
  let raise_w () = Runtime.raise_sync rt "W" [ Value.Int 1 ] in
  for _ = 1 to 120 do
    raise_w ()
  done;
  Alcotest.(check int) "window overflows the bound" 120 (Trace.occurrences trace);
  ignore (Adaptive.tick ctl);
  Alcotest.(check int) "window empty after tick" 0 (Trace.occurrences trace);
  Alcotest.(check int) "profile_trace_entries" 120 (Adaptive.profile_trace_entries ctl);
  let g = Adaptive.cumulative_profile ctl in
  Alcotest.(check int) "every occurrence counted" 120
    (Event_graph.node g "W").Event_graph.occurrences;
  Alcotest.(check int) "every edge counted" 119 (Event_graph.total_weight g);
  (* re-optimization waits for min_trace new occurrences *)
  for _ = 1 to 99 do
    raise_w ();
    ignore (Adaptive.tick ctl)
  done;
  Alcotest.(check int) "not before min_trace" 0 (Adaptive.reoptimizations ctl);
  raise_w ();
  ignore (Adaptive.tick ctl);
  Alcotest.(check int) "at min_trace" 1 (Adaptive.reoptimizations ctl);
  Alcotest.(check int) "both windows absorbed" 220 (Adaptive.profile_trace_entries ctl)

let test_adaptive_preserves_behaviour () =
  let rt1 = adaptive_setup () in
  let rt2 = adaptive_setup () in
  let ctl =
    Adaptive.create
      ~policy:{ Adaptive.default_policy with Adaptive.fallback_limit = 5; min_trace = 30;
                threshold = 10 }
      rt2
  in
  let script rt tick =
    for i = 1 to 60 do
      Runtime.raise_sync rt "W" [ Value.Int i ];
      tick ()
    done;
    Runtime.bind rt ~event:"W" (Handler.hir' "w3");
    for i = 1 to 60 do
      Runtime.raise_sync rt "W" [ Value.Int i ];
      tick ()
    done
  in
  script rt1 (fun () -> ());
  script rt2 (fun () -> ignore (Adaptive.tick ctl));
  List.iter
    (fun g ->
      Alcotest.(check Helpers.value) ("global " ^ g) (Runtime.get_global rt1 g)
        (Runtime.get_global rt2 g))
    [ "n1"; "n2"; "n3" ]

let suite =
  [
    Alcotest.test_case "dominators diamond" `Quick test_dominators_diamond;
    Alcotest.test_case "dominators chain" `Quick test_dominators_chain;
    Alcotest.test_case "dominators cycle" `Quick test_dominators_cycle;
    Alcotest.test_case "dominators unreachable" `Quick test_dominators_unreachable;
    Alcotest.test_case "defer equivalence" `Quick test_defer_equivalence;
    Alcotest.test_case "defer flush on unknown" `Quick test_defer_flush_on_unknown_follower;
    Alcotest.test_case "defer flush at run end" `Quick test_defer_flush_at_run_end;
    Alcotest.test_case "defer rejects raising" `Quick test_defer_rejects_raising_handlers;
    Alcotest.test_case "defer cheaper" `Quick test_defer_cheaper_than_generic;
    Alcotest.test_case "adaptive reoptimizes" `Quick test_adaptive_reoptimizes_after_rebind;
    Alcotest.test_case "adaptive preserves" `Quick test_adaptive_preserves_behaviour;
    Alcotest.test_case "adaptive absorbs overflow" `Quick
      test_adaptive_absorbs_overflowing_window;
  ]
