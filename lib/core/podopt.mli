(** Podopt: profile-directed optimization of event-based programs
    (PLDI 2002 reproduction).

    The facade re-exports the library's layers under short names and
    provides the one-call workflow:

    {[
      let rt = Podopt.Runtime.create ~program () in
      (* bind handlers, then: *)
      let applied = Podopt.optimize rt ~threshold:100 ~workload in
      Fmt.pr "%a" Podopt.pp_applied applied
    ]} *)

(** {1 HIR — the handler language} *)

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

(** {1 Event system} *)

module Event = Podopt_eventsys.Event
module Handler = Podopt_eventsys.Handler
module Registry = Podopt_eventsys.Registry
module Runtime = Podopt_eventsys.Runtime
module Trace = Podopt_eventsys.Trace
module Costs = Podopt_eventsys.Costs
module Vclock = Podopt_eventsys.Vclock

(** {1 Profiling and analysis} *)

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

(** The line codec that the trace, profile-store and replay-log formats
    share: its one [Format_error], and [save]/[load] for their files. *)
module Lines = Podopt_codec.Lines

(** {1 Optimization} *)

module Plan = Podopt_optimize.Plan
module Superhandler = Podopt_optimize.Superhandler
module Chain_merge = Podopt_optimize.Chain_merge
module Guard = Podopt_optimize.Guard
module Speculate = Podopt_optimize.Speculate
module Defer = Podopt_optimize.Defer
module Adaptive = Podopt_optimize.Adaptive
module Breaker = Podopt_optimize.Breaker
module Driver = Podopt_optimize.Driver

(** {1 Fault injection}

    Deterministic, seed-driven fault plans ([lib/faults]): handler
    crashes, latency spikes, wire corruption, and link drops, each on
    an independent PRNG stream so scenarios replay byte-identically at
    any domain count.  {!Breaker} is the matching optimizer circuit
    breaker. *)

module Faults = Podopt_faults.Plan

(** {1 Persistent profile store}

    One run's per-shard adaptive state (event-graph counters, hot
    chains, binding signatures) serialized to a versioned file
    ([lib/store]); stores merge order-independently across runs and
    warm-start the broker via [Broker.config.profile_in]. *)

module Profile_store = Podopt_store.Store

(** {1 Multicore execution}

    The domain-pool layer ([lib/exec]) the broker drains on: a
    reusable round barrier and a fixed pool of domains, the caller
    among them, driven in epochs. *)

module Exec_barrier = Podopt_exec.Barrier
module Exec_pool = Podopt_exec.Pool

(** {1 Serving — the broker layer}

    Many client sessions multiplexed onto N isolated shard runtimes,
    each with its own on-line adaptive optimizer; [domains > 1] drains
    shards in parallel with sequential-identical results (see
    [doc/BROKER.md]). *)

module Broker = Podopt_broker.Broker
module Broker_policy = Podopt_broker.Policy
module Broker_shard = Podopt_broker.Shard
module Broker_workload = Podopt_broker.Workload
module Broker_report = Podopt_broker.Report
module Shard_map = Podopt_broker.Shard_map
module Ingress = Podopt_broker.Ingress
module Session = Podopt_broker.Session
module Loadgen = Podopt_broker.Loadgen

(** {1 Record/replay}

    Deterministic run logs: {!Record} serializes the workload a broker
    run is given into a {!Replay_log.t}, {!Replay} reconstructs and
    re-runs it (byte-identical document at any domain count), and
    {!Replay_diff} is the differential oracle over a recorded log
    (optimizer on vs off, compiled vs interpreted handlers), with
    greedy shrinking to a minimal reproducer (see [doc/REPLAY.md]). *)

module Replay_log = Podopt_replay.Log
module Record = Podopt_replay.Record
module Replay = Podopt_replay.Replay
module Replay_diff = Podopt_replay.Diff

type applied = Driver.applied

(** The paper's methodology in one call: profile [workload] (two runs —
    event-level, then handler-level on the hot events), analyze with
    threshold W, and install guarded super-handlers. *)
val optimize :
  ?threshold:int -> ?strategy:Plan.chain_strategy -> ?speculate:bool ->
  workload:(unit -> unit) -> Runtime.t -> applied

(** Print what was installed, what was skipped and why, and the
    code-size report. *)
val pp_applied : Format.formatter -> applied -> unit
