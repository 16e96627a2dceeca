(** On-line adaptive re-optimization (a Sec. 5 extension).

    Keeps event-level recording on, watches the runtime's fallback
    counters, and re-runs analyze/apply from the trace window when
    installed super-handlers stop matching the live bindings — restoring
    the fast path automatically after dynamic reconfiguration.  The
    window is node and edge counters ({!Podopt_eventsys.Trace}); the
    controller never turns the entry log on.

    Every window is merged into a cumulative profile graph when it is
    reset, after each re-optimization and whenever it passes
    [max_trace]; that graph is what a {!Podopt_store} profile store
    persists, and {!warm_start} is the inverse: install super-handlers
    from a stored profile before the first event arrives.

    A crash-recovery checkpoint {!save}s the controller whole: the
    cumulative graph, the live window and the plan it last installed,
    so {!restore} brings a killed shard back in the state it was in,
    instead of re-planning from a profile that, recorded while
    super-handlers ran, no longer shows the chains they subsume. *)

open Podopt_eventsys

type policy = {
  fallback_limit : int;  (** re-optimize after this many fallbacks *)
  min_trace : int;       (** ... once the window holds this many occurrences *)
  threshold : int;
  strategy : Plan.chain_strategy;
  max_trace : int;
      (** bound the window to this many occurrences; past it {!tick}
          merges the window into the cumulative profile and starts a
          new one *)
  compile : bool;
      (** compile installed super-handlers to closures (default); false
          interprets the transformed HIR instead — same observable
          behaviour, different virtual cost *)
}

val default_policy : policy

type t

(** Turns on event counting (without the entry log) on the runtime's
    trace.  Raises
    [Invalid_argument] on inconsistent knobs: non-positive
    [fallback_limit], [min_trace], [max_trace] or [threshold], or
    [min_trace > max_trace] (re-optimization could never trigger). *)
val create : ?policy:policy -> Runtime.t -> t

val policy : t -> policy
val fallbacks_since_last : t -> int
val should_reoptimize : t -> bool

(** Force a re-analysis from the live window; [None] when the analysis
    found nothing to do.  A re-optimization absorbs the window. *)
val reoptimize : t -> Driver.applied option

(** Poll from the application's idle loop; absorbs a window past
    [max_trace] and re-optimizes when the policy triggers. *)
val tick : t -> Driver.applied option

val reoptimizations : t -> int

(** The cumulative profile as a fresh event graph: every absorbed
    window plus the live one, merged.  Costs O(distinct edges), however
    long the window. *)
val cumulative_profile : t -> Podopt_profile.Event_graph.t

(** Occurrences represented in {!cumulative_profile}. *)
val profile_trace_entries : t -> int

(** {1 Crash recovery} *)

(** A controller's state as a checkpoint keeps it.  The graph is a
    copy, so it shares nothing mutable with the controller, and
    {!restore} only reads it. *)
type saved = {
  absorbed : Podopt_profile.Event_graph.t;
      (** a copy of every window absorbed so far *)
  absorbed_entries : int;  (** occurrences [absorbed] counts *)
  window : Trace.window;   (** the live window *)
  fallback_baseline : int;
      (** the runtime fallback count the next re-optimization counts
          from *)
  plan : Plan.t option;
      (** the plan installed last, while the runtime has any
          super-handler installed: [None] before the first install and
          once a breaker trip has uninstalled them all.  A plan does not
          uninstall what an earlier one installed, so after a
          fallback-driven re-optimization entries of the earlier plan
          can outlive it; the broker's workloads never rebind, so there
          the plan is everything installed. *)
}

(** O(distinct events and edges), however long the window. *)
val save : t -> saved

(** The cumulative profile a saved state holds, as a fresh graph, and
    the occurrences it counts: [saved_profile (save t)] is
    [(cumulative_profile t, profile_trace_entries t)]. *)
val saved_profile : saved -> Podopt_profile.Event_graph.t * int

(** Load a {!save}d state into a freshly created controller on a fresh
    runtime whose counters already hold the saved shard's: fold
    [absorbed] into the cumulative profile, make [window] the live
    window, reinstall [plan] and restore the fallback baseline.  The
    controller then decides exactly as the saved one would have.  It
    does not re-plan from the profile: a profile recorded while
    super-handlers ran no longer shows the chains they subsume. *)
val restore : t -> saved -> unit

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
