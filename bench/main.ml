(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 4) plus the extension experiments, and runs Bechamel
   wall-clock micro-benchmarks over the same code paths.

     dune exec bench/main.exe            -- all deterministic tables
     dune exec bench/main.exe -- fig10   -- one table
     dune exec bench/main.exe -- bechamel-- wall-clock micro-benchmarks

   Deterministic tables use the virtual cost model (units), so the output
   in EXPERIMENTS.md is reproducible bit-for-bit; the Bechamel suite
   measures real nanoseconds on the identical workloads. *)

open Podopt
module Video = Podopt_apps.Video_player
module Messenger = Podopt_apps.Secure_messenger
module Ed = Podopt_apps.Editor
module Ctp = Podopt_ctp.Ctp
module Ctp_events = Podopt_ctp.Events

let section title =
  Fmt.pr "@.=== %s ===@.@." title

let pct opt orig = if orig = 0.0 then 100.0 else 100.0 *. opt /. orig

(* --- paired app builders (plain runs the profiling workload too, so the
   two sides start measurement from identical state) ------------------- *)

let video_workload rt ~frames () = Video.profile_workload rt ~frames ()

let video_pair ?(frames = 150) () =
  let orig = Video.create () in
  let opt = Video.create () in
  video_workload orig ~frames ();
  video_workload orig ~frames ();
  ignore
    (Driver.profile_and_optimize ~threshold:20 opt
       ~workload:(video_workload opt ~frames));
  (orig, opt)

let seccomm_pair () =
  let orig = Messenger.create () in
  let opt = Messenger.create () in
  Messenger.profile_workload orig ();
  Messenger.profile_workload orig ();
  ignore
    (Driver.profile_and_optimize ~threshold:10 opt
       ~workload:(fun () -> Messenger.profile_workload opt ()));
  (orig, opt)

let editor_pair () =
  let orig = Ed.create () in
  let opt = Ed.create () in
  Ed.profile_workload orig ();
  Ed.profile_workload orig ();
  ignore
    (Driver.profile_and_optimize ~threshold:10 (Ed.runtime opt)
       ~workload:(fun () -> Ed.profile_workload opt ()));
  (orig, opt)

(* --- Fig. 5: event graph of the video player -------------------------- *)

let traced_video_graph ~frames =
  let rt = Video.create () in
  Trace.enable_events rt.Runtime.trace;
  video_workload rt ~frames ();
  Event_graph.of_trace rt.Runtime.trace

let fig5 () =
  section "Figure 5: event graph generated from the video player";
  let g = traced_video_graph ~frames:390 in
  Fmt.pr "%a" Report.pp_edge_table g;
  Fmt.pr "@.nodes: %d, edges: %d, trace transitions: %d@." (Event_graph.node_count g)
    (Event_graph.edge_count g) (Event_graph.total_weight g);
  let chains = Chains.find g in
  Fmt.pr "@.synchronous event chains (bold edges of Fig. 5):@.";
  Fmt.pr "%a" Report.pp_chains chains

(* --- Fig. 6: reduced event graph at threshold 300 ---------------------- *)

let fig6 () =
  section "Figure 6: reduced event graph (threshold W = 300)";
  let g = traced_video_graph ~frames:390 in
  let r = Reduce.reduce g ~threshold:300 in
  Fmt.pr "%a" Report.pp_edge_table r;
  Fmt.pr "@.linear event paths in the reduced graph:@.";
  Fmt.pr "%a" Report.pp_paths (Paths.linear_paths r);
  Fmt.pr "@.chains in the reduced graph:@.";
  Fmt.pr "%a" Report.pp_chains (Chains.find r)

(* --- Fig. 10: video player total & handler time by frame rate --------- *)

let fig10 () =
  section "Figure 10: video player optimization results";
  Fmt.pr
    "%10s | %12s %12s %6s | %13s %13s %6s | %s@."
    "Frame rate" "Total orig" "Total opt" "(%)" "Handler orig" "Handler opt" "(%)"
    "misses orig/opt";
  List.iter
    (fun rate ->
      let orig, opt = video_pair () in
      let r1 = Video.play orig ~rate ~seconds:8 in
      let r2 = Video.play opt ~rate ~seconds:8 in
      Fmt.pr "%10d | %12d %12d %6.1f | %13d %13d %6.1f | %d/%d@." rate
        r1.Video.total_time r2.Video.total_time
        (pct (float_of_int r2.Video.total_time) (float_of_int r1.Video.total_time))
        r1.Video.handler_time r2.Video.handler_time
        (pct (float_of_int r2.Video.handler_time) (float_of_int r1.Video.handler_time))
        r1.Video.deadline_misses r2.Video.deadline_misses)
    [ 10; 15; 20; 25 ];
  Fmt.pr
    "@.(paper: total %% = 97.2 / 98.0 / 90.2 / 89.1; handler %% = 39.1 / 37.5 / 33.3 / 33.3 —@. the total-time gap should grow with the frame rate as idle CPU runs out)@."

(* --- Fig. 11: per-event processing times ------------------------------- *)

let fig11 () =
  section "Figure 11: event processing times in the video player";
  Fmt.pr "%14s | %10s %10s | %s@." "Event" "Original" "Optimized" "Speedup (%)";
  let orig, opt = video_pair () in
  List.iter
    (fun event ->
      let t1 = Video.measure_event orig ~event ~n:1000 in
      let t2 = Video.measure_event opt ~event ~n:1000 in
      Fmt.pr "%14s | %10.1f %10.1f | %10.1f@." event t1 t2
        (100.0 *. (t1 -. t2) /. t1))
    Video.fig11_events;
  Fmt.pr "@.(paper: Adapt 80.0%%, SegFromUser 88.2%%, Seg2Net 73.0%%)@."

(* --- Fig. 12: SecComm push/pop times by packet size -------------------- *)

let fig12 () =
  section "Figure 12: impact of optimization in SecComm";
  Fmt.pr "%6s | %10s %10s %6s | %10s %10s %6s@." "Size" "Push orig" "Push opt" "(%)"
    "Pop orig" "Pop opt" "(%)";
  let orig, opt = seccomm_pair () in
  List.iter
    (fun size ->
      let m1 = Messenger.measure orig ~size ~rounds:100 in
      let m2 = Messenger.measure opt ~size ~rounds:100 in
      Fmt.pr "%6d | %10.0f %10.0f %6.1f | %10.0f %10.0f %6.1f@." size
        m1.Messenger.push_mean m2.Messenger.push_mean
        (pct m2.Messenger.push_mean m1.Messenger.push_mean)
        m1.Messenger.pop_mean m2.Messenger.pop_mean
        (pct m2.Messenger.pop_mean m1.Messenger.pop_mean))
    Messenger.paper_sizes;
  Fmt.pr
    "@.(paper push %%: 88.0 / 91.6 / 89.8 / 89.0 / 86.7 / 96.5; pop %%: 95.2 / 97.4 / 94.4 / 95.1 / 93.8 / 87.9 —@. crypto dominates, so improvements stay modest)@."

(* --- Fig. 13: X client event response times ----------------------------- *)

let fig13 () =
  section "Figure 13: optimization of X events";
  Fmt.pr "%10s | %10s %10s | %6s@." "Type" "Original" "Optimized" "(%)";
  let orig, opt = editor_pair () in
  let s1 = Ed.measure_scroll orig ~n:250 in
  let s2 = Ed.measure_scroll opt ~n:250 in
  let p1 = Ed.measure_popup orig ~n:250 in
  let p2 = Ed.measure_popup opt ~n:250 in
  let k1 = Ed.measure_keystroke orig ~n:250 in
  let k2 = Ed.measure_keystroke opt ~n:250 in
  Fmt.pr "%10s | %10.1f %10.1f | %6.1f@." "Scroll" s1 s2 (pct s2 s1);
  Fmt.pr "%10s | %10.1f %10.1f | %6.1f@." "Popup" p1 p2 (pct p2 p1);
  Fmt.pr "%10s | %10.1f %10.1f | %6.1f@." "Keystroke" k1 k2 (pct k2 k1);
  Fmt.pr
    "@.(paper: Scroll 93.7%%, Popup 83.8%% — popup gains more because its handlers@. do more framework work per activation.  Keystroke is this repo's extra@. scenario: its real work is two tiny cell renders, so the event machinery@. dominates and the optimizations win far more)@."

(* --- Sec. 4.2 code-size table ------------------------------------------ *)

(* The paper measures growth against the whole binary (objdump -d | wc -l
   of all of xterm / the CTP player), in which handler code is a small
   fraction.  Our HIR node counts cover only the handler code, so the
   whole-program column uses an instruction-count proxy for the framework
   each program links against (Xlib+Xt / the Cactus runtime + CTP +
   player ≈ tens of thousands of instructions in the 2002 binaries). *)
let framework_instructions = 60_000

let codesize () =
  section "Code size growth (Sec. 4.2: paper reports 1.3% video player, 1.1% SecComm)";
  Fmt.pr "%14s | %9s %7s %14s %14s@." "Program" "Handlers" "Added" "vs handlers"
    "vs whole prog";
  let row name (r : Size.report) =
    Fmt.pr "%14s | %9d %7d %13.1f%% %13.1f%%@." name r.Size.original r.Size.added
      r.Size.growth_percent
      (100.0 *. float_of_int r.Size.added
      /. float_of_int (framework_instructions + r.Size.original))
  in
  let report name mk workload =
    let rt = mk () in
    let applied = Driver.profile_and_optimize ~threshold:10 rt ~workload:(workload rt) in
    row name (Driver.size_report applied)
  in
  report "video player" Video.create (fun rt () -> video_workload rt ~frames:40 ());
  report "SecComm" Messenger.create (fun rt () -> Messenger.profile_workload rt ());
  let ed = Ed.create () in
  let applied =
    Driver.profile_and_optimize ~threshold:10 (Ed.runtime ed)
      ~workload:(fun () -> Ed.profile_workload ed ())
  in
  row "X client" (Driver.size_report applied);
  Fmt.pr
    "@.(super-handlers duplicate handler code, so growth relative to handler code@. alone is large; relative to the whole program — the paper's objdump metric —@. it stays around a percent.  Originals are retained for the guard fallback.)@."

(* --- Ablation: which optimization buys what ----------------------------- *)

let ablate () =
  section "Ablation: video player handler time under partial optimization";
  let measure plan_of =
    let rt = Video.create () in
    (* profile *)
    Trace.clear rt.Runtime.trace;
    Trace.enable_events rt.Runtime.trace;
    video_workload rt ~frames:60 ();
    let plan = Driver.analyze ~threshold:20 rt in
    Trace.disable_events rt.Runtime.trace;
    (match plan_of plan with
     | Some plan -> ignore (Driver.apply rt plan)
     | None -> ());
    let r = Video.play rt ~rate:20 ~seconds:5 in
    r.Video.handler_time
  in
  let baseline = measure (fun _ -> None) in
  let row name f =
    let t = measure f in
    Fmt.pr "%34s | %10d | %5.1f%% of baseline@." name t
      (100.0 *. float_of_int t /. float_of_int baseline)
  in
  Fmt.pr "%34s | %10d | (baseline)@." "no optimization" baseline;
  row "merging only (no chains, no passes)" (fun plan ->
      Some
        {
          plan with
          Plan.subsume = false;
          passes = [];
          actions =
            List.concat_map
              (function
                | Plan.Merge_chain { events; _ } ->
                  List.map (fun e -> Plan.Merge_event e) events
                | a -> [ a ])
              plan.Plan.actions;
        });
  row "merging + compiler passes" (fun plan ->
      Some
        {
          plan with
          Plan.subsume = false;
          actions =
            List.concat_map
              (function
                | Plan.Merge_chain { events; _ } ->
                  List.map (fun e -> Plan.Merge_event e) events
                | a -> [ a ])
              plan.Plan.actions;
        });
  row "chains, no compiler passes" (fun plan -> Some { plan with Plan.passes = [] });
  row "full (chains + subsume + passes)" (fun plan -> Some plan)

(* --- Fig. 14 extension: partitioned guards under rebinding -------------- *)

let chain_program =
  {|
handler a_h(x) { global a_n = global a_n + 1; let y = x + 1; raise sync ChainB(y); }
handler b_h(x) { global b_n = global b_n + 1; raise sync ChainC(x * 2); }
handler b_alt(x) { global b_n = global b_n + 1; raise sync ChainC(x * 2); }
handler c_h(x) { global c_n = global c_n + 1; raise sync ChainD(x + 3); }
handler d_h(x) { global d_n = global d_n + x; }
|}

let chain_rt () =
  let rt = Runtime.create ~program:(Parse.program chain_program) () in
  List.iter (fun g -> Runtime.set_global rt g (Value.Int 0)) [ "a_n"; "b_n"; "c_n"; "d_n" ];
  Runtime.bind rt ~event:"ChainA" (Handler.hir' "a_h");
  Runtime.bind rt ~event:"ChainB" (Handler.hir' "b_h");
  Runtime.bind rt ~event:"ChainC" (Handler.hir' "c_h");
  Runtime.bind rt ~event:"ChainD" (Handler.hir' "d_h");
  rt

let fig14 () =
  section "Figure 14 extension: monolithic vs partitioned guards under rebinding";
  let run ~strategy ~rebind_every =
    let rt = chain_rt () in
    (match strategy with
     | Some strategy ->
       ignore
         (Driver.apply rt
            {
              Plan.empty with
              Plan.actions =
                [
                  Plan.Merge_chain
                    { events = [ "ChainA"; "ChainB"; "ChainC"; "ChainD" ]; strategy };
                ];
            })
     | None -> ());
    Runtime.reset_measurements rt;
    let flip = ref false in
    for i = 1 to 2000 do
      (match rebind_every with
       | Some k when i mod k = 0 ->
         flip := not !flip;
         ignore (Runtime.unbind rt ~event:"ChainB" ~handler:(if !flip then "b_h" else "b_alt"));
         Runtime.bind rt ~event:"ChainB" (Handler.hir' (if !flip then "b_alt" else "b_h"))
       | _ -> ());
      Runtime.raise_sync rt "ChainA" [ Value.Int i ]
    done;
    Runtime.total_handler_time rt
  in
  Fmt.pr "%16s | %12s %12s %12s@." "Rebind every" "unoptimized" "monolithic"
    "partitioned";
  List.iter
    (fun rebind_every ->
      let base = run ~strategy:None ~rebind_every in
      let mono = run ~strategy:(Some Plan.Monolithic) ~rebind_every in
      let part = run ~strategy:(Some Plan.Partitioned) ~rebind_every in
      let label =
        match rebind_every with None -> "never" | Some k -> string_of_int k
      in
      Fmt.pr "%16s | %12d %12d %12d@." label base mono part)
    [ None; Some 500; Some 100; Some 20 ];
  Fmt.pr
    "@.(with rebinding, a monolithic super-handler permanently falls back to the@. original code; partitioned guards keep events A, C, D optimized — Fig. 14)@."

(* --- Sec. 5 extension: speculative successor preparation ---------------- *)

let speculate () =
  section "Sec. 5 extension: speculative handler-list prefetch (A -> B 90% / C 10%)";
  let program =
    {|
handler a_spec(x) { global sa = global sa + 1; }
handler b_spec(x) { global sb = global sb + 1; }
handler c_spec(x) { global sc = global sc + 1; }
|}
  in
  let run ~speculate =
    let rt = Runtime.create ~program:(Parse.program program) () in
    List.iter (fun g -> Runtime.set_global rt g (Value.Int 0)) [ "sa"; "sb"; "sc" ];
    Runtime.bind rt ~event:"SpecA" (Handler.hir' "a_spec");
    Runtime.bind rt ~event:"SpecB" (Handler.hir' "b_spec");
    Runtime.bind rt ~event:"SpecC" (Handler.hir' "c_spec");
    if speculate then Runtime.set_speculation rt ~after:"SpecA" ~expect:"SpecB";
    Runtime.reset_measurements rt;
    for i = 1 to 2000 do
      Runtime.raise_sync rt "SpecA" [ Value.Int i ];
      if i mod 10 = 0 then Runtime.raise_sync rt "SpecC" [ Value.Int i ]
      else Runtime.raise_sync rt "SpecB" [ Value.Int i ]
    done;
    (Runtime.total_handler_time rt, rt.Runtime.stats.Runtime.spec_hits,
     rt.Runtime.stats.Runtime.spec_misses)
  in
  let t0, _, _ = run ~speculate:false in
  let t1, hits, misses = run ~speculate:true in
  Fmt.pr "without speculation: %d units@." t0;
  Fmt.pr "with speculation:    %d units (%.1f%%), %d hits / %d misses@." t1
    (100.0 *. float_of_int t1 /. float_of_int t0)
    hits misses

(* --- Configurability cost: CTP configurations --------------------------- *)

let configs () =
  section "Configurability cost: CTP configurations (handler time per 100 frames)";
  Fmt.pr "%12s | %9s | %12s %12s %7s@." "Config" "handlers" "orig" "optimized" "saved";
  let measure name mk =
    let run opt =
      let rt : Runtime.t = mk () in
      Ctp.open_session rt;
      let wl () =
        for i = 1 to 100 do
          Ctp.send rt ~priority:(i mod 4 / 3) (Video.frame_payload i)
        done;
        Runtime.run rt
      in
      if opt then ignore (Driver.profile_and_optimize ~threshold:20 rt ~workload:wl)
      else begin
        wl ();
        wl ()
      end;
      Runtime.reset_measurements rt;
      wl ();
      let handlers =
        List.length (Runtime.handlers rt Ctp_events.seg_from_user)
        + List.length (Runtime.handlers rt Ctp_events.seg2net)
        + List.length (Runtime.handlers rt Ctp_events.segment_acked)
      in
      (Runtime.total_handler_time rt, handlers)
    in
    let t1, handlers = run false in
    let t2, _ = run true in
    Fmt.pr "%12s | %9d | %12d %12d %6.1f%%@." name handlers t1 t2
      (100.0 *. float_of_int (t1 - t2) /. float_of_int t1)
  in
  measure "minimal" (fun () -> Ctp.create ~minimal:true ());
  measure "default" (fun () -> Ctp.create ());
  measure "extended" (fun () -> Ctp.create ~extended:true ());
  Fmt.pr
    "@.(richer configurations bind more handlers per event; the event-machinery@. overhead grows with configuration richness and optimization recovers it —@. the paper's configurability-vs-performance trade-off)@."

(* --- Sec. 5 extension: deferred pair execution --------------------------- *)

let defer () =
  section "Sec. 5 extension: deferred pair execution (A then B or C, 50/50)";
  let program =
    {|
handler da1(x) { global d_sum = global d_sum + x; }
handler da2(x) { global d_runs = global d_runs + 1; }
handler db(x) { global db_sum = global db_sum + x + global d_sum; }
handler dc(x) { global dc_sum = global dc_sum + x * 3 - global d_sum; }
|}
  in
  let setup () =
    let rt = Runtime.create ~program:(Parse.program program) () in
    List.iter (fun g -> Runtime.set_global rt g (Value.Int 0))
      [ "d_sum"; "d_runs"; "db_sum"; "dc_sum" ];
    Runtime.bind rt ~event:"DefA" (Handler.hir' "da1");
    Runtime.bind rt ~event:"DefA" (Handler.hir' "da2");
    Runtime.bind rt ~event:"DefB" (Handler.hir' "db");
    Runtime.bind rt ~event:"DefC" (Handler.hir' "dc");
    rt
  in
  let workload rt =
    for i = 1 to 2000 do
      Runtime.raise_sync rt "DefA" [ Value.Int i ];
      Runtime.raise_sync rt (if i mod 2 = 0 then "DefB" else "DefC") [ Value.Int i ]
    done;
    Runtime.run rt
  in
  let measure mode =
    let rt = setup () in
    (match mode with
     | `Generic -> ()
     | `Merged ->
       ignore
         (Driver.apply rt
            { Plan.empty with
              Plan.actions =
                [ Plan.Merge_event "DefA"; Plan.Merge_event "DefB" ] })
       (* DefC has one handler; merging DefA/DefB shows plain merging *)
     | `Deferred -> Defer.install rt ~event:"DefA" ~followers:[ "DefB"; "DefC" ]);
    Runtime.reset_measurements rt;
    workload rt;
    (Runtime.total_handler_time rt, rt.Runtime.stats.Runtime.deferred_pairs)
  in
  let tg, _ = measure `Generic in
  let tm, _ = measure `Merged in
  let td, pairs = measure `Deferred in
  Fmt.pr "generic:            %8d units@." tg;
  Fmt.pr "per-event merging:  %8d units (%.1f%%)@." tm
    (100.0 *. float_of_int tm /. float_of_int tg);
  Fmt.pr "deferred pairs:     %8d units (%.1f%%), %d pair executions@." td
    (100.0 *. float_of_int td /. float_of_int tg)
    pairs;
  Fmt.pr
    "@.(with a 50/50 successor split neither chaining nor speculation applies;@. deferral runs one jointly-optimized dispatch instead of two)@."

(* --- Bechamel wall-clock suite ------------------------------------------ *)

let bechamel () =
  section "Bechamel wall-clock micro-benchmarks (monotonic clock, ns/run)";
  let open Bechamel in
  let open Toolkit in
  (* pre-built pairs reused across samples *)
  let v_orig, v_opt = video_pair () in
  let s_orig, s_opt = seccomm_pair () in
  let e_orig, e_opt = editor_pair () in
  let frame = Video.frame_payload 3 in
  (* Fig. 12's push and pop at every packet size; pop replays one wire
     the original side pushed, which both sides decrypt alike *)
  let seccomm size =
    let msg = Messenger.message ~size 1 in
    let wire = Messenger.push_collect s_orig msg in
    List.concat_map
      (fun (side, rt) ->
        [
          Test.make ~name:(Printf.sprintf "seccomm/push-%d-%s" size side)
            (Staged.stage (fun () -> Podopt_seccomm.Seccomm.push rt msg));
          Test.make ~name:(Printf.sprintf "seccomm/pop-%d-%s" size side)
            (Staged.stage (fun () -> Podopt_seccomm.Seccomm.pop rt wire));
        ])
      [ ("orig", s_orig); ("opt", s_opt) ]
  in
  let tests =
    [
      Test.make ~name:"marshal/roundtrip-512B"
        (Staged.stage (fun () ->
             ignore
               (Value.unmarshal (Value.marshal [ Value.Bytes (Bytes.create 512) ]))));
      Test.make ~name:"video/frame-orig"
        (Staged.stage (fun () -> Ctp.send v_orig frame));
      Test.make ~name:"video/frame-opt" (Staged.stage (fun () -> Ctp.send v_opt frame));
    ]
    @ List.concat_map seccomm Messenger.paper_sizes
    @ [
        Test.make ~name:"xclient/scroll-orig"
          (Staged.stage (fun () -> Ed.scroll_once e_orig ~y:77));
        Test.make ~name:"xclient/scroll-opt"
          (Staged.stage (fun () -> Ed.scroll_once e_opt ~y:77));
        Test.make ~name:"xclient/popup-orig"
          (Staged.stage (fun () -> Ed.popup_once e_orig ~at:(120, 130)));
        Test.make ~name:"xclient/popup-opt"
          (Staged.stage (fun () -> Ed.popup_once e_opt ~at:(120, 130)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let ns = Hashtbl.create 32 in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] ->
            Hashtbl.replace ns name est;
            Fmt.pr "%28s : %12.1f ns/run@." name est
          | Some _ | None -> Fmt.pr "%28s : (no estimate)@." name)
        analyzed)
    tests;
  (* keep queues from growing unboundedly if tests are re-run *)
  Runtime.run v_orig;
  Runtime.run v_opt;
  section "Figure 12 in wall time: SecComm push/pop by packet size (ns/run)";
  Fmt.pr "%6s | %10s %10s %6s | %10s %10s %6s@." "Size" "Push orig" "Push opt" "(%)"
    "Pop orig" "Pop opt" "(%)";
  let get op size side =
    let name = Printf.sprintf "seccomm/%s-%d-%s" op size side in
    Option.value ~default:nan (Hashtbl.find_opt ns name)
  in
  List.iter
    (fun size ->
      let po = get "push" size "orig" and pp = get "push" size "opt" in
      let qo = get "pop" size "orig" and qp = get "pop" size "opt" in
      Fmt.pr "%6d | %10.0f %10.0f %6.1f | %10.0f %10.0f %6.1f@." size po pp (pct pp po) qo qp
        (pct qp qo))
    Messenger.paper_sizes;
  Fmt.pr
    "@.(optimized as %% of original; paper push %%: 88.0 / 91.6 / 89.8 / 89.0 / 86.7 / 96.5,@. \
     pop %%: 95.2 / 97.4 / 94.4 / 95.1 / 93.8 / 87.9.  Wall time, so it varies run to run;@. \
     `fig12` is the deterministic cost-model table)@."

(* --- dispatcher ----------------------------------------------------------- *)

let all_tables () =
  fig5 ();
  fig6 ();
  fig10 ();
  fig11 ();
  fig12 ();
  fig13 ();
  codesize ();
  ablate ();
  fig14 ();
  speculate ();
  defer ();
  configs ()

let () =
  let names = Array.to_list Sys.argv |> List.tl |> List.filter (( <> ) "--") in
  match names with
  | [] ->
    all_tables ();
    bechamel ()
  | names ->
    List.iter
      (fun name ->
        match name with
        | "fig5" -> fig5 ()
        | "fig6" -> fig6 ()
        | "fig10" -> fig10 ()
        | "fig11" -> fig11 ()
        | "fig12" -> fig12 ()
        | "fig13" -> fig13 ()
        | "codesize" -> codesize ()
        | "ablate" -> ablate ()
        | "fig14" -> fig14 ()
        | "speculate" -> speculate ()
        | "defer" -> defer ()
        | "configs" -> configs ()
        | "bechamel" -> bechamel ()
        | "tables" -> all_tables ()
        | other ->
          Fmt.epr "unknown benchmark %s@." other;
          exit 2)
      names
