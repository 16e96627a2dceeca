(* The line codec the trace, store and replay-log formats share: its
   verbatim documents survive byte for byte, a tag with leading
   whitespace is never one, and every spec type reads back what it
   prints, floats included. *)

module B = Podopt_broker
module Lines = Podopt.Lines
module RL = Podopt.Replay_log
module Plan = Podopt_faults.Plan

(* --- verbatim documents ------------------------------------------------- *)

let test_verbatim_blocks () =
  let doc = "  indented\n\n# not a comment\n J not a tag\nlast\n" in
  let buf = Buffer.create 64 in
  Buffer.add_string buf "# a comment\nV 2\nR a  b\n";
  Lines.add_doc buf 'J' doc;
  Buffer.add_string buf "\n  R c\n";
  let records = ref [] and got = ref "" in
  Lines.iter ~version:("test", 2)
    ~docs:[ ('J', ( := ) got) ]
    (fun line fields -> records := (line, fields) :: !records)
    (Buffer.contents buf);
  Alcotest.(check string) "the document survives" doc !got;
  Alcotest.(check (list (pair string (list string))))
    "records, trimmed"
    [ ("R a  b", [ "R"; "a"; "b" ]); ("R c", [ "R"; "c" ]) ]
    (List.rev !records)

(* A replay log's JSON document has indented lines; a J line that is
   itself indented is a record with a bad tag, not a document line. *)
let test_log_verbatim () =
  let cfg = { B.Broker.default_config with shards = 2; seed = 7L } in
  let log =
    Podopt.Record.run ~warmup_ops:2 cfg
      { B.Loadgen.default_profile with B.Loadgen.sessions = 2; ops = 2 }
  in
  let text = RL.to_string log in
  Alcotest.(check string) "the JSON document survives" log.RL.json
    (RL.of_string text).RL.json;
  let indented =
    String.split_on_char '\n' text
    |> List.concat_map (fun l ->
           if String.length l > 1 && String.sub l 0 2 = "V " then [ l; " J x" ] else [ l ])
    |> String.concat "\n"
  in
  match RL.of_string indented with
  | _ -> Alcotest.fail "an indented J line was taken as a document line"
  | exception Lines.Format_error msg ->
    Alcotest.(check string) "rejected as a record" {|bad record tag "J" in line "J x"|} msg

(* --- the spec round-trip law -------------------------------------------- *)

(* Any positive finite float, from plain to extreme: [%g] alone
   round-trips only those with at most six significant digits. *)
let gen_positive =
  let open QCheck2.Gen in
  let valid f = Float.is_finite f && f > 0.0 in
  map
    (fun f -> if valid f then f else 1.5)
    (oneof
       [
         pfloat;
         map Float.abs float;
         float_range 1e-3 10.0;
         map (fun q -> float_of_int q /. 4.0) (int_range 1 40);
       ])

let gen_arrivals =
  let open QCheck2.Gen in
  oneof
    [
      pure B.Arrivals.Periodic;
      pure B.Arrivals.Uniform;
      map
        (fun f ->
          let a = 1.0 +. f in
          B.Arrivals.Pareto (if a > 1.0 && Float.is_finite a then a else Float.succ 1.0))
        gen_positive;
      map2 (fun t m -> B.Arrivals.Flash (t, m)) (int_range 1 max_int) (int_range 2 max_int);
    ]

let gen_faults =
  let open QCheck2.Gen in
  let rate = oneof [ pure 0; int_range 0 1000 ] in
  let+ seed = int64
  and+ crash = rate
  and+ spike = rate
  and+ spike_cost = int_range 1 max_int
  and+ corrupt = rate
  and+ drop = rate
  and+ kill = rate in
  {
    Plan.seed;
    crash_permille = crash;
    spike_permille = spike;
    spike_cost;
    corrupt_permille = corrupt;
    drop_permille = drop;
    kill_permille = kill;
  }

(* [of_string (to_string v) = Ok v] for one spec type. *)
let law name gen of_string to_string =
  QCheck2.Test.make ~name ~count:500 ~print:to_string gen (fun v ->
      of_string (to_string v) = Ok v)

let prop_kind =
  law "workload kinds round-trip"
    QCheck2.Gen.(oneofl B.Workload.[ Video; Seccomm; Xwin; Chat ])
    B.Workload.kind_of_string B.Workload.kind_to_string

let prop_policy =
  law "shed policies round-trip"
    QCheck2.Gen.(oneofl B.Policy.[ Drop_newest; Drop_oldest ])
    B.Policy.shed_of_string B.Policy.shed_to_string

let prop_route =
  law "routes round-trip"
    QCheck2.Gen.(
      oneof [ pure B.Shard_map.Hash; map (fun s -> B.Shard_map.Zipf s) gen_positive ])
    B.Shard_map.route_of_string B.Shard_map.route_to_string

let prop_arrivals =
  law "arrival specs round-trip" gen_arrivals B.Arrivals.of_string B.Arrivals.to_string

(* A plan that injects nothing prints as "none", which reads back as
   [Plan.none] whatever its seed and spike cost. *)
let prop_faults =
  QCheck2.Test.make ~name:"fault plans round-trip" ~count:500 ~print:Plan.to_string
    gen_faults (fun v ->
      if Plan.enabled v then Plan.of_string (Plan.to_string v) = Ok v
      else Plan.to_string v = "none")

let suite =
  [
    Alcotest.test_case "verbatim blocks" `Quick test_verbatim_blocks;
    Alcotest.test_case "log documents are verbatim" `Quick test_log_verbatim;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_kind; prop_policy; prop_route; prop_arrivals; prop_faults ]
