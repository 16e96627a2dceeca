(** End-to-end profile-directed optimization (Sec. 3).

    {!analyze} turns a trace into a {!Plan.t}: event graph (Fig. 4),
    threshold reduction (Fig. 6), chain extraction, merge selection.
    {!apply} builds the merged, subsumed, compiler-optimized, compiled
    super-handlers and installs them under binding-version guards.

    Correctness never depends on profile accuracy: subsumption rewrites
    the actual synchronous raise sites in handler code (conditional
    raises stay conditional), and stale bindings are caught by runtime
    guards.  The profile only decides where to spend the effort. *)

open Podopt_hir
open Podopt_eventsys

val default_threshold : int

(** Analyze the runtime's recorded trace.  [speculate] adds prefetch
    pairs for probable (non-chain) successors. *)
val analyze :
  ?threshold:int -> ?strategy:Plan.chain_strategy -> ?speculate:bool ->
  Runtime.t -> Plan.t

(** The same analysis over an arbitrary event graph — e.g. a merged
    cross-run profile from {!Podopt_store} feeding a warm start.  The
    runtime is consulted only for current handler bindings. *)
val plan_of_graph :
  ?threshold:int -> ?strategy:Plan.chain_strategy -> ?speculate:bool ->
  Runtime.t -> Podopt_profile.Event_graph.t -> Plan.t

type applied = {
  plan : Plan.t;
  installed : string list;           (** events that got super-handlers *)
  skipped : (string * string) list;  (** (event, reason) *)
  generated_procs : Ast.proc list;
  original_size : int;
  added_size : int;
}

(** Merge + optionally subsume + optimize one event's super-handler. *)
val build_super :
  Runtime.t -> Ast.program -> passes:Pipeline.pass list ->
  subsume:(string * Ast.block) list -> event:string -> Ast.proc * int

(** Install a plan.  Chains install a super-handler for the head and for
    every suffix (later chain events may be raised from outside the
    chain).  Generated procedures are appended to the runtime program.
    [compile] (default [true]) compiles super-handlers to closures;
    [~compile:false] installs interpreted closures over the same
    transformed HIR — observably identical, different virtual cost (the
    replay differential oracle compares the two variants). *)
val apply : ?compile:bool -> Runtime.t -> Plan.t -> applied

(** The paper's methodology in one call: run [workload] with event
    instrumentation, analyze, re-run with handler instrumentation on the
    hot events, then apply. *)
val profile_and_optimize :
  ?threshold:int -> ?strategy:Plan.chain_strategy -> ?speculate:bool ->
  workload:(unit -> unit) -> Runtime.t -> applied

val size_report : applied -> Size.report
