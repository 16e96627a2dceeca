(* The run recorder: drive the broker through Loadgen.steady while
   capturing what the run is given — each phase's sessions (index, op
   payloads, start and interval, via steady's session maker) and every
   fault-plan draw (via Broker.set_fault_logger) — then bundle it with
   the run's JSON document into a Log.t.  Link delays and open-loop
   schedules are seeded draws the replayer re-derives, so no link is
   hooked. *)

module Broker = Podopt_broker.Broker
module Loadgen = Podopt_broker.Loadgen
module Session = Podopt_broker.Session
module Report = Podopt_broker.Report
module Plan = Podopt_faults.Plan

(* Loadgen.make_sessions builds session [index] at position [index]. *)
let sess_of ~phase index s =
  {
    Log.s_phase = phase;
    s_id = Session.id s;
    s_index = index;
    s_start = Session.start s;
    s_interval = Session.interval s;
    s_ops = Session.ops s;
  }

let run ?(warmup_ops = 12) ?(metrics = false) (cfg : Broker.config)
    (profile : Loadgen.profile) : Log.t =
  let broker = Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> Broker.shutdown broker)
    (fun () ->
      (* One fired-bit buffer per (salt, kind).  All cells are created
         up front on the coordinator: with domains > 1 each shard's
         draws arrive on its pinned worker, which then only ever
         mutates its own pre-existing cell. *)
      let draws : (int * string, bool list ref) Hashtbl.t = Hashtbl.create 32 in
      if Plan.enabled cfg.Broker.faults then
        for salt = 0 to cfg.Broker.shards do
          List.iter (fun kind -> Hashtbl.replace draws (salt, kind) (ref [])) Plan.kinds
        done;
      Broker.set_fault_logger broker
        (Some
           (fun ~salt ~kind ~fired ->
             let cell = Hashtbl.find draws (salt, kind) in
             cell := fired :: !cell));
      let recorded = ref [] in
      let make phase prof =
        let sessions = Loadgen.make_sessions broker prof in
        recorded := !recorded @ List.mapi (sess_of ~phase) sessions;
        sessions
      in
      let summary = Loadgen.steady ~warmup_ops ~make broker profile in
      let json = Report.json ~metrics broker summary in
      let fault_draws =
        Hashtbl.fold (fun key cell acc -> (key, List.rev !cell) :: acc) draws []
        |> List.filter (fun (_, bits) -> bits <> [])
        |> List.sort compare
      in
      {
        Log.config = cfg;
        profile;
        warmup_ops;
        metrics;
        sessions = !recorded;
        fault_draws;
        migrations = Broker.migrations broker;
        json;
      })
