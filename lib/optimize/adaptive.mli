(** On-line adaptive re-optimization (a Sec. 5 extension).

    Keeps event tracing enabled, watches the runtime's fallback
    counters, and re-runs analyze/apply from the accumulated trace when
    installed super-handlers stop matching the live bindings — restoring
    the fast path automatically after dynamic reconfiguration.

    Every analyzed trace window is also folded into a cumulative profile
    graph that survives the post-analysis trace clears; the snapshot of
    that graph is what a {!Podopt_store} profile store persists, and
    {!warm_start} is the inverse: install super-handlers from a stored
    profile before the first event arrives. *)

open Podopt_eventsys

type policy = {
  fallback_limit : int;  (** re-optimize after this many fallbacks *)
  min_trace : int;       (** ... once the trace is this long *)
  threshold : int;
  strategy : Plan.chain_strategy;
  max_trace : int;
      (** bound the trace to this length; past it the oldest half is
          dropped, retaining recent history for the next analysis *)
  compile : bool;
      (** compile installed super-handlers to closures (default); false
          interprets the transformed HIR instead — same observable
          behaviour, different virtual cost *)
}

val default_policy : policy

type t

(** Enables continuous event tracing on the runtime.  Raises
    [Invalid_argument] on inconsistent knobs: non-positive
    [fallback_limit], [min_trace], [max_trace] or [threshold], or
    [min_trace > max_trace] (re-optimization could never trigger). *)
val create : ?policy:policy -> Runtime.t -> t

val policy : t -> policy
val fallbacks_since_last : t -> int
val should_reoptimize : t -> bool

(** Force a re-analysis from the accumulated trace; [None] when the
    analysis found nothing to do. *)
val reoptimize : t -> Driver.applied option

(** Poll from the application's idle loop; bounds the trace and
    re-optimizes when the policy triggers. *)
val tick : t -> Driver.applied option

val reoptimizations : t -> int

(** Everything observed so far as a fresh event graph: the cumulative
    profile of every analyzed-and-cleared trace window, plus the live
    trace.  (Windows dropped by {!tick}'s truncation are lost — the
    profile is a sampling aid, not an audit log.) *)
val profile_snapshot : t -> Podopt_profile.Event_graph.t

(** Trace entries represented in {!profile_snapshot}. *)
val profile_trace_entries : t -> int

(** Fold a checkpointed profile graph back into the cumulative profile,
    crediting [trace_entries] toward {!profile_trace_entries} — the
    crash-recovery inverse of {!profile_snapshot}. *)
val absorb_graph :
  t -> graph:Podopt_profile.Event_graph.t -> trace_entries:int -> unit

type warm = {
  installed : int;
      (** events that got super-handlers before any packet *)
  stale_events : int;
      (** profile events rejected by the binding-signature check *)
}

(** Install super-handlers from a stored (merged, cross-run) profile
    graph before any traffic arrives.  Plan actions covering an event
    whose stored binding signature ([signatures]) differs from the live
    bindings — or is missing — are dropped as stale; anything installed
    still sits behind the runtime's binding-version guards, so even a
    wrong profile degrades to generic dispatch rather than
    misbehaving. *)
val warm_start :
  t -> graph:Podopt_profile.Event_graph.t ->
  signatures:(string * string list) list -> warm

(** Cumulative {!warm_start} results on this controller. *)
val warm_installed : t -> int

val warm_stale : t -> int
