(* The replayer: rebuild a recorded run from its log — the broker from
   the logged config, each phase's sessions with Loadgen.session from
   the logged indices, payloads, starts and intervals — then re-run
   Loadgen.steady.  Each session's link delays and open-loop schedule
   are seeded from its index exactly as in the recorded run, so the
   replay runs the live code path.  The regenerated JSON document must
   equal the recorded one byte-for-byte, at any domain count.

   Fault draws are not scripted either: the injectors are rebuilt from
   the same spec, so their streams reproduce by construction.  Instead
   the replay *verifies* each draw against the log, which turns any PRNG
   or fault-plan regression into a loud mismatch count rather than a
   silently different run. *)

module Broker = Podopt_broker.Broker
module Loadgen = Podopt_broker.Loadgen
module Report = Podopt_broker.Report

type outcome = {
  json : string;            (* the regenerated document *)
  fault_mismatches : int;   (* replayed fault draws that differed from the log *)
  migration_mismatch : bool;
      (* the re-derived migration plan differed from the recorded one
         (only checkable when replaying at the recorded domain count —
         the plan legitimately depends on [domains]) *)
  summary : Loadgen.summary;
}

(* One phase's sessions, rebuilt in creation order.  A shrunk log keeps
   its sessions' indices, so each one draws the delays and schedule it
   drew in the full run. *)
let make_sessions broker (log : Log.t) phase =
  List.map
    (fun (s : Log.sess) ->
      Loadgen.session broker log.Log.profile ~index:s.Log.s_index ~id:s.Log.s_id
        ~ops:s.Log.s_ops ~start:s.Log.s_start ~interval:s.Log.s_interval)
    (Log.phase_sessions log phase)

(* Verify each live fault draw against the recorded stream; counts (per
   (salt, kind) cell, so worker domains never share state) any draw
   that differs or overruns the log. *)
let install_fault_verifier broker (log : Log.t) =
  let streams = Hashtbl.create 32 in
  List.iter
    (fun (key, bits) ->
      Hashtbl.replace streams key (ref bits, ref 0))
    log.Log.fault_draws;
  let missing = (ref ([] : bool list), ref 0) in
  let cell_of key =
    match Hashtbl.find_opt streams key with
    | Some c -> c
    | None -> missing
  in
  (* every (salt, kind) a live injector can draw from must have a cell
     before the run starts: with domains > 1 the lookup happens on the
     shard's worker, which must not mutate the table *)
  let cfg = Broker.config broker in
  if Podopt_faults.Plan.enabled cfg.Broker.faults then
    for salt = 0 to cfg.Broker.shards do
      List.iter
        (fun kind ->
          let key = (salt, kind) in
          if not (Hashtbl.mem streams key) then
            Hashtbl.replace streams key (ref [], ref 0))
        Podopt_faults.Plan.kinds
    done;
  Broker.set_fault_logger broker
    (Some
       (fun ~salt ~kind ~fired ->
         let expected, mismatches = cell_of (salt, kind) in
         match !expected with
         | b :: rest ->
           expected := rest;
           if b <> fired then incr mismatches
         | [] -> incr mismatches));
  fun () ->
    Hashtbl.fold (fun _ (_, m) acc -> acc + !m) streams !(snd missing)

(* Re-run the logged run.  [domains] overrides the logged domain count
   (the document is domain-independent); [verify_faults] compares every
   fault draw against the log. *)
let run ?domains ?(verify_faults = true) (log : Log.t) : outcome =
  let cfg =
    {
      log.Log.config with
      Broker.domains =
        Option.value ~default:log.Log.config.Broker.domains domains;
    }
  in
  let broker = Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> Broker.shutdown broker)
    (fun () ->
      let mismatches =
        if verify_faults then install_fault_verifier broker log
        else fun () -> 0
      in
      let summary =
        Loadgen.steady ~warmup_ops:log.Log.warmup_ops
          ~make:(fun phase _ -> make_sessions broker log phase)
          broker log.Log.profile
      in
      let json = Report.json ~metrics:log.Log.metrics broker summary in
      (* the migration plan is a pure function of recorded state, so a
         replay at the recorded domain count must re-derive the logged
         plan move for move; at any other domain count the plan
         legitimately differs and is not compared *)
      let migration_mismatch =
        cfg.Broker.domains = log.Log.config.Broker.domains
        && Broker.migrations broker <> log.Log.migrations
      in
      { json; fault_mismatches = mismatches (); migration_mismatch; summary })

(* First line where two documents differ: (line number, recorded line,
   replayed line) — [None] on byte equality.  For the human-readable
   mismatch report. *)
let first_diff (a : string) (b : string) =
  if String.equal a b then None
  else
    let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
    let rec go n = function
      | x :: xs, y :: ys when String.equal x y -> go (n + 1) (xs, ys)
      | x :: _, y :: _ -> Some (n, x, y)
      | x :: _, [] -> Some (n, x, "<end of document>")
      | [], y :: _ -> Some (n, "<end of document>", y)
      | [], [] -> Some (n, "<end>", "<end>")
    in
    go 1 (la, lb)
