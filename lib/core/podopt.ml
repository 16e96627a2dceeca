(* Podopt: profile-directed optimization of event-based programs.

   The facade re-exports the library's layers under short names and
   provides the one-call workflow of the paper:

   {[
     let rt = Podopt.Runtime.create ~program () in
     (* bind handlers, then: *)
     let applied =
       Podopt.optimize rt ~threshold:100 ~workload:(fun () -> drive rt)
     in
     Fmt.pr "%a@." Podopt.pp_applied applied
   ]}

   Layer map:
   - {!Value}, {!Ast}, {!Parse}, {!Interp}, {!Compile}, {!Pipeline}: the
     HIR handler language (write handlers as text, parse, run).
   - {!Event}, {!Handler}, {!Registry}, {!Runtime}, {!Trace}, {!Costs}:
     the event runtime (bind/raise/unbind, sync/async/timed).
   - {!Event_graph}, {!Reduce}, {!Paths}, {!Chains}, {!Handler_graph},
     {!Subsume}, {!Dot}: profiling and analysis.
   - {!Plan}, {!Superhandler}, {!Chain_merge}, {!Guard}, {!Speculate},
     {!Driver}: the optimizer.
   - {!Broker}, {!Shard_map}, {!Ingress}, {!Session}, {!Loadgen},
     {!Broker_report}: the sharded, backpressured event-serving layer.
   - {!Faults}, {!Breaker}: deterministic fault injection and the
     optimizer circuit breaker (the robustness layer).
   - {!Profile_store}: the persistent profile store — per-shard adaptive
     state serialized across runs, merged order-independently, and fed
     back to warm-start the broker. *)

(* HIR *)
module Value = Podopt_hir.Value
module Ast = Podopt_hir.Ast
module Parse = Podopt_hir.Parse
module Pp = Podopt_hir.Pp
module Prim = Podopt_hir.Prim
module Check = Podopt_hir.Check
module Interp = Podopt_hir.Interp
module Compile = Podopt_hir.Compile
module Pipeline = Podopt_hir.Pipeline
module Size = Podopt_hir.Size
module Analysis = Podopt_hir.Analysis
module Rewrite = Podopt_hir.Rewrite
module Subst = Podopt_hir.Subst
module Deret = Podopt_hir.Deret
module Fresh = Podopt_hir.Fresh
module Opt_constfold = Podopt_hir.Opt_constfold
module Opt_copyprop = Podopt_hir.Opt_copyprop
module Opt_cse = Podopt_hir.Opt_cse
module Opt_dce = Podopt_hir.Opt_dce
module Opt_inline = Podopt_hir.Opt_inline

(* Event system *)
module Event = Podopt_eventsys.Event
module Handler = Podopt_eventsys.Handler
module Registry = Podopt_eventsys.Registry
module Runtime = Podopt_eventsys.Runtime
module Trace = Podopt_eventsys.Trace
module Costs = Podopt_eventsys.Costs
module Vclock = Podopt_eventsys.Vclock

(* Profiling *)
module Event_graph = Podopt_profile.Event_graph
module Reduce = Podopt_profile.Reduce
module Paths = Podopt_profile.Paths
module Chains = Podopt_profile.Chains
module Handler_graph = Podopt_profile.Handler_graph
module Subsume = Podopt_profile.Subsume
module Dominators = Podopt_profile.Dominators
module Dot = Podopt_profile.Dot
module Report = Podopt_profile.Report
module Trace_io = Podopt_profile.Trace_io
module Lines = Podopt_codec.Lines

(* Optimization *)
module Plan = Podopt_optimize.Plan
module Superhandler = Podopt_optimize.Superhandler
module Chain_merge = Podopt_optimize.Chain_merge
module Guard = Podopt_optimize.Guard
module Speculate = Podopt_optimize.Speculate
module Defer = Podopt_optimize.Defer
module Adaptive = Podopt_optimize.Adaptive
module Breaker = Podopt_optimize.Breaker
module Driver = Podopt_optimize.Driver

(* Fault injection (deterministic, seed-driven) *)
module Faults = Podopt_faults.Plan

(* The persistent profile store (cross-run merging + warm start) *)
module Profile_store = Podopt_store.Store

(* Multicore execution (the domain pool the broker drains on) *)
module Exec_barrier = Podopt_exec.Barrier
module Exec_pool = Podopt_exec.Pool

(* Serving (the broker layer: many sessions onto sharded runtimes) *)
module Broker = Podopt_broker.Broker
module Broker_policy = Podopt_broker.Policy
module Broker_shard = Podopt_broker.Shard
module Broker_workload = Podopt_broker.Workload
module Broker_report = Podopt_broker.Report
module Shard_map = Podopt_broker.Shard_map
module Ingress = Podopt_broker.Ingress
module Session = Podopt_broker.Session
module Loadgen = Podopt_broker.Loadgen

(* Record/replay (run logs, the replayer, and the differential oracle) *)
module Replay_log = Podopt_replay.Log
module Record = Podopt_replay.Record
module Replay = Podopt_replay.Replay
module Replay_diff = Podopt_replay.Diff

type applied = Driver.applied

(* Profile [workload] (two runs: event-level then handler-level), analyze,
   and install super-handlers. *)
let optimize ?threshold ?strategy ?speculate ~workload rt =
  Driver.profile_and_optimize ?threshold ?strategy ?speculate ~workload rt

let pp_applied ppf (a : applied) =
  Fmt.pf ppf "installed: %s@." (String.concat ", " a.Driver.installed);
  List.iter (fun (e, why) -> Fmt.pf ppf "skipped %s: %s@." e why) a.Driver.skipped;
  Fmt.pf ppf "%a@." Size.pp_report (Driver.size_report a)
