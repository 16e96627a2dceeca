(* Persistent profile store: the codec is a fixpoint, merging is an
   order-independent set union (associative, commutative, idempotent —
   on bytes, not just values), a merged store warm-starts the broker
   deterministically at any domain count, a stale profile degrades to
   generic dispatch without failures, and Adaptive rejects inconsistent
   policies at construction. *)

module B = Podopt_broker
module Store = Podopt.Profile_store
module Event_graph = Podopt.Event_graph
module Adaptive = Podopt.Adaptive
module Runtime = Podopt_eventsys.Runtime
module Handler = Podopt_eventsys.Handler
module Parse = Podopt_hir.Parse
module Ast = Podopt_hir.Ast
module Value = Podopt_hir.Value

(* --- generators --------------------------------------------------------- *)

let event_names = [ "EvA"; "EvB"; "EvC"; "EvD" ]

let gen_graph =
  let open QCheck2.Gen in
  let gen_edge =
    let* src = oneofl event_names in
    let* dst = oneofl event_names in
    let* mode = oneofl [ Ast.Sync; Ast.Async; Ast.Timed 5 ] in
    return (src, dst, mode)
  in
  let* edges = list_size (0 -- 12) gen_edge in
  return
    (let g = Event_graph.create () in
     List.iter (fun (src, dst, mode) -> Event_graph.add_edge g ~src ~dst mode) edges;
     g)

let gen_entry =
  let open QCheck2.Gen in
  let* kind = oneofl [ "seccomm"; "video" ] in
  let* shard = 0 -- 3 in
  let* dispatched = 0 -- 200 in
  let* trace_entries = 0 -- 500 in
  let* graph = gen_graph in
  let* chains = list_size (0 -- 2) (list_size (2 -- 3) (oneofl event_names)) in
  let* handlers =
    list_size (0 -- 3)
      (let* ev = oneofl event_names in
       let* hs = list_size (1 -- 3) (oneofl [ "h1"; "h2"; "h3" ]) in
       return (ev, hs))
  in
  (* one signature per event, as a real capture produces *)
  let handlers =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) handlers
  in
  return
    (Store.make_entry ~kind ~shard ~dispatched ~trace_entries ~graph ~chains
       ~handlers ())

let gen_store =
  let open QCheck2.Gen in
  let* entries = list_size (0 -- 4) gen_entry in
  return (Store.of_entries entries)

(* --- codec and merge properties ----------------------------------------- *)

let prop_codec_fixpoint =
  QCheck2.Test.make ~name:"store codec is a fixpoint" ~count:200 gen_store
    (fun store ->
      let s1 = Store.to_string store in
      let s2 = Store.to_string (Store.of_string s1) in
      String.equal s1 s2)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"merge is commutative on bytes" ~count:200
    QCheck2.Gen.(pair gen_store gen_store)
    (fun (a, b) ->
      String.equal
        (Store.to_string (Store.merge a b))
        (Store.to_string (Store.merge b a)))

let prop_merge_associative =
  QCheck2.Test.make ~name:"merge is associative on bytes" ~count:200
    QCheck2.Gen.(triple gen_store gen_store gen_store)
    (fun (a, b, c) ->
      String.equal
        (Store.to_string (Store.merge (Store.merge a b) c))
        (Store.to_string (Store.merge a (Store.merge b c))))

let prop_merge_idempotent =
  QCheck2.Test.make ~name:"merge is idempotent on bytes" ~count:200 gen_store
    (fun a ->
      String.equal (Store.to_string (Store.merge a a)) (Store.to_string a))

let prop_merge_order_independent =
  QCheck2.Test.make ~name:"merge_all is order-independent on bytes" ~count:100
    QCheck2.Gen.(pair (list_size (2 -- 4) gen_store) (0 -- 1000))
    (fun (stores, salt) ->
      (* a deterministic pseudo-shuffle keyed on [salt] *)
      let keyed = List.mapi (fun i s -> ((i * 7919 + salt * 104729) mod 65537, s)) stores in
      let shuffled = List.map snd (List.sort compare keyed) in
      String.equal
        (Store.to_string (Store.merge_all stores))
        (Store.to_string (Store.merge_all shuffled)))

(* --- load-time verification --------------------------------------------- *)

let sample_store () =
  let g = Event_graph.create () in
  Event_graph.add_edge g ~src:"EvA" ~dst:"EvB" Ast.Sync;
  Event_graph.add_edge g ~src:"EvA" ~dst:"EvB" Ast.Sync;
  Store.of_entries
    [ Store.make_entry ~kind:"seccomm" ~shard:0 ~dispatched:10 ~trace_entries:20
        ~graph:g ~chains:[ [ "EvA"; "EvB" ] ] ~handlers:[ ("EvA", [ "h1" ]) ] () ]

(* Replace the first occurrence of [sub] in [s]. *)
let replace_first s ~sub ~by =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Alcotest.failf "%S not found" sub
    else if String.equal (String.sub s i m) sub then
      String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
    else go (i + 1)
  in
  go 0

let test_load_rejects_tamper () =
  let text = Store.to_string (sample_store ()) in
  (* flip a counter inside the entry body: the stored id no longer
     matches the content *)
  let tampered = replace_first text ~sub:" 10 20" ~by:" 11 20" in
  Alcotest.(check bool) "tamper changed the text" false (String.equal text tampered);
  (match Store.of_string tampered with
   | _ -> Alcotest.fail "tampered store loaded"
   | exception Podopt.Lines.Format_error _ -> ());
  (* the pristine text still loads *)
  ignore (Store.of_string text)

let test_previous_version_refused () =
  (* a version-2 store: V 2 and an entry that still carries a depth
     observation, the record v3 dropped *)
  let text = Store.to_string (sample_store ()) in
  let v2 =
    replace_first text ~sub:(Printf.sprintf "V %d\n" Store.version) ~by:"V 2\n"
    ^ "D 1 80\n"
  in
  match Store.of_string v2 with
  | _ -> Alcotest.fail "a version-2 store loaded"
  | exception Podopt.Lines.Format_error msg ->
    Alcotest.(check string) "error names the version"
      "unsupported store version 2 (expected 3)" msg

(* --- Adaptive policy validation ----------------------------------------- *)

let validation_rt () =
  let rt =
    Runtime.create
      ~program:(Parse.program "handler h(x) { global n = global n + 1; }")
      ()
  in
  Runtime.set_global rt "n" (Value.Int 0);
  Runtime.bind rt ~event:"E" (Handler.hir' "h");
  rt

let test_policy_validation () =
  let rt = validation_rt () in
  let check_rejected name policy =
    match Adaptive.create ~policy rt with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  let d = Adaptive.default_policy in
  check_rejected "fallback_limit 0" { d with Adaptive.fallback_limit = 0 };
  check_rejected "fallback_limit negative" { d with Adaptive.fallback_limit = -3 };
  check_rejected "min_trace 0" { d with Adaptive.min_trace = 0 };
  check_rejected "max_trace 0" { d with Adaptive.max_trace = 0 };
  check_rejected "threshold 0" { d with Adaptive.threshold = 0 };
  check_rejected "min_trace > max_trace"
    { d with Adaptive.min_trace = 101; max_trace = 100 };
  (* the boundary and the default are both fine *)
  ignore (Adaptive.create ~policy:{ d with Adaptive.min_trace = 100; max_trace = 100 }
            (validation_rt ()));
  ignore (Adaptive.create rt)

(* --- warm start end-to-end ---------------------------------------------- *)

let profile =
  {
    B.Loadgen.default_profile with
    B.Loadgen.sessions = 6;
    ops = 6;
    interval = 120;
    spread = 31;
  }

let base_cfg =
  { B.Broker.default_config with B.Broker.shards = 2; seed = 9L }

(* A steady optimized run whose accumulated profile seeds the store. *)
let seed_store () =
  let broker = B.Broker.create base_cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      ignore (B.Loadgen.steady ~warmup_ops:12 broker profile);
      B.Broker.profile_store broker)

let serve_json ?profile_in ~domains () =
  let r =
    Helpers.serve ~warmup_ops:0 { base_cfg with B.Broker.profile_in; domains }
      profile
  in
  (r.Helpers.json, r.Helpers.summary)

let test_warm_start_first_epoch () =
  let store = seed_store () in
  let _, cold = serve_json ~domains:1 () in
  let _, warm = serve_json ~profile_in:store ~domains:1 () in
  Alcotest.(check int) "cold first epoch has no optimized dispatches" 0
    cold.B.Loadgen.first_epoch_optimized;
  Alcotest.(check bool) "warm first epoch dispatches optimized" true
    (warm.B.Loadgen.first_epoch_optimized > 0);
  Alcotest.(check bool) "warm run is cheaper" true
    (warm.B.Loadgen.busy < cold.B.Loadgen.busy);
  Alcotest.(check int) "no failures" 0 warm.B.Loadgen.failures

let test_warm_start_domain_identity () =
  (* the store round-trips through its text form on the way in, as it
     would through a file *)
  let store = Store.of_string (Store.to_string (seed_store ())) in
  let j1, _ = serve_json ~profile_in:store ~domains:1 () in
  let j4, _ = serve_json ~profile_in:store ~domains:4 () in
  Alcotest.(check string) "warm-start JSON byte-identical at domains 1 vs 4" j1 j4

let test_stale_profile_degrades () =
  (* rewrite every entry's binding signatures to handlers that do not
     exist: the warm-start pass must reject the whole profile as stale
     and the run must complete exactly like a cold one *)
  let stale =
    Store.of_entries
      (List.map
         (fun (e : Store.entry) ->
           Store.make_entry ~kind:e.Store.kind ~shard:e.Store.shard
             ~dispatched:e.Store.dispatched ~trace_entries:e.Store.trace_entries
             ~graph:e.Store.graph ~chains:e.Store.chains
             ~handlers:(List.map (fun (ev, _) -> (ev, [ "gone" ])) e.Store.handlers)
             ())
         (Store.entries (seed_store ())))
  in
  let cfg = { base_cfg with B.Broker.profile_in = Some stale } in
  let broker = B.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      let s = B.Loadgen.steady ~warmup_ops:0 broker profile in
      Alcotest.(check int) "nothing installed from a stale profile" 0
        (B.Broker.warm_installed broker);
      Alcotest.(check bool) "stale events counted" true
        (B.Broker.warm_stale broker > 0);
      Alcotest.(check int) "no optimized dispatch in the first epoch" 0
        s.B.Loadgen.first_epoch_optimized;
      Alcotest.(check int) "no failures" 0 s.B.Loadgen.failures;
      Alcotest.(check bool) "run completed" false s.B.Loadgen.truncated)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_codec_fixpoint;
    QCheck_alcotest.to_alcotest prop_merge_commutative;
    QCheck_alcotest.to_alcotest prop_merge_associative;
    QCheck_alcotest.to_alcotest prop_merge_idempotent;
    QCheck_alcotest.to_alcotest prop_merge_order_independent;
    Alcotest.test_case "load rejects a tampered entry" `Quick test_load_rejects_tamper;
    Alcotest.test_case "a previous-version store is refused" `Quick
      test_previous_version_refused;
    Alcotest.test_case "adaptive rejects inconsistent policies" `Quick
      test_policy_validation;
    Alcotest.test_case "warm start reaches optimized in the first epoch" `Quick
      test_warm_start_first_epoch;
    Alcotest.test_case "warm-start serve identical across domains" `Quick
      test_warm_start_domain_identity;
    Alcotest.test_case "stale profile degrades to generic" `Quick
      test_stale_profile_degrades;
  ]
