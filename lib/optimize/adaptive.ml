(* On-line adaptive re-optimization (Sec. 5: "on-line analysis and
   optimization ... are potential extensions to this work").

   Instead of the paper's off-line, manual profile-then-optimize cycle,
   this controller keeps event tracing enabled, watches the runtime's
   fallback counter, and re-runs analyze/apply from the accumulated trace
   whenever the installed super-handlers stop matching the live bindings.
   Correctness is unaffected (the guards already ensure that); this
   merely restores the fast path automatically after reconfiguration.

   The controller also accumulates every analyzed trace window into a
   persistent profile graph ([cumulative_profile]): the event-graph
   counters survive the trace clears that follow each re-optimization,
   so a whole run's observations can be serialized into a profile store
   and warm-start the next run ([warm_start]). *)

open Podopt_eventsys
open Podopt_profile

type policy = {
  fallback_limit : int;   (* re-optimize after this many fallbacks *)
  min_trace : int;        (* but only once the trace has this many entries *)
  threshold : int;        (* analysis threshold W *)
  strategy : Plan.chain_strategy;
  max_trace : int;        (* bound the trace to this length *)
  compile : bool;         (* compile super-handlers (vs interpret the HIR) *)
}

let default_policy =
  {
    fallback_limit = 32;
    min_trace = 200;
    threshold = Driver.default_threshold;
    strategy = Plan.Monolithic;
    max_trace = 100_000;
    compile = true;
  }

(* Inconsistent knobs used to be accepted silently: a negative
   fallback_limit re-optimized every batch, min_trace > max_trace could
   never trigger (the bound truncates below the minimum), and a
   non-positive threshold made every edge "hot".  Reject them all at
   construction. *)
let validate_policy (p : policy) =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  if p.fallback_limit <= 0 then
    fail "Adaptive.create: fallback_limit %d must be positive" p.fallback_limit;
  if p.min_trace <= 0 then
    fail "Adaptive.create: min_trace %d must be positive" p.min_trace;
  if p.max_trace <= 0 then
    fail "Adaptive.create: max_trace %d must be positive" p.max_trace;
  if p.threshold <= 0 then
    fail "Adaptive.create: threshold %d must be positive" p.threshold;
  if p.min_trace > p.max_trace then
    fail "Adaptive.create: min_trace %d exceeds max_trace %d (re-optimization could never trigger)"
      p.min_trace p.max_trace

type t = {
  rt : Runtime.t;
  policy : policy;
  profile : Event_graph.t;
      (* cumulative graph of every trace window already analyzed and
         cleared; the live trace sits on top of it *)
  mutable trace_seen : int;  (* trace entries folded into [profile] *)
  mutable fallbacks_at_last_opt : int;
  mutable reoptimizations : int;
  mutable warm_installed : int;  (* super-handlers installed by warm_start *)
  mutable warm_stale : int;      (* profile events warm_start rejected *)
}

(* Create the controller and enable continuous event tracing.  The
   runtime keeps paying the (cheap) trace-recording cost; that is the
   price of on-line profiling.  Raises [Invalid_argument] on an
   inconsistent policy. *)
let create ?(policy = default_policy) (rt : Runtime.t) : t =
  validate_policy policy;
  Trace.enable_events rt.Runtime.trace;
  {
    rt;
    policy;
    profile = Event_graph.create ();
    trace_seen = 0;
    fallbacks_at_last_opt = 0;
    reoptimizations = 0;
    warm_installed = 0;
    warm_stale = 0;
  }

let policy (t : t) = t.policy

let fallbacks_since_last (t : t) =
  let current =
    t.rt.Runtime.stats.Runtime.fallbacks + t.rt.Runtime.stats.Runtime.segment_fallbacks
  in
  (* the application may reset runtime measurements at any time; detect
     the counter going backwards and re-baseline *)
  if current < t.fallbacks_at_last_opt then t.fallbacks_at_last_opt <- 0;
  current - t.fallbacks_at_last_opt

let should_reoptimize (t : t) : bool =
  Trace.length t.rt.Runtime.trace >= t.policy.min_trace
  && ((* nothing installed yet: perform the initial optimization *)
      Runtime.optimized_events t.rt = []
     || fallbacks_since_last t >= t.policy.fallback_limit)

(* Fold the live trace window into the cumulative profile.  Called just
   before the window is cleared, so no entry is counted twice.  (Entries
   dropped by [tick]'s truncation are lost to the profile — a bounded,
   documented loss: the profile is a sampling aid, not an audit log.) *)
let absorb_trace (t : t) =
  let len = Trace.length t.rt.Runtime.trace in
  if len > 0 then begin
    Event_graph.merge_into ~into:t.profile
      (Event_graph.of_trace t.rt.Runtime.trace);
    t.trace_seen <- t.trace_seen + len
  end

(* Re-analyze from the accumulated trace and reinstall.  Returns the
   applied report when a re-optimization happened. *)
let reoptimize (t : t) : Driver.applied option =
  let plan =
    Driver.analyze ~threshold:t.policy.threshold ~strategy:t.policy.strategy t.rt
  in
  if plan.Plan.actions = [] then None
  else begin
    let applied = Driver.apply ~compile:t.policy.compile t.rt plan in
    t.fallbacks_at_last_opt <-
      t.rt.Runtime.stats.Runtime.fallbacks
      + t.rt.Runtime.stats.Runtime.segment_fallbacks;
    t.reoptimizations <- t.reoptimizations + 1;
    absorb_trace t;
    Trace.clear t.rt.Runtime.trace;
    Some applied
  end

(* Poll: call periodically (e.g. from the application's idle loop).
   Keeps the trace bounded and re-optimizes when the policy triggers.
   Bounding retains the newest half of the window rather than clearing:
   dropping the whole trace would discard all profile history and stall
   re-optimization until [min_trace] entries rebuild from scratch. *)
let tick (t : t) : Driver.applied option =
  if Trace.length t.rt.Runtime.trace > t.policy.max_trace then
    Trace.truncate_oldest t.rt.Runtime.trace ~keep:(t.policy.max_trace / 2);
  if should_reoptimize t then reoptimize t else None

let reoptimizations (t : t) = t.reoptimizations

(* --- the persistent-profile surface ------------------------------------ *)

(* Every analyzed-and-cleared trace window, as a fresh graph.  The live
   window is left out: a checkpoint keeps it by reference and folds it
   only when the profile is needed. *)
let cumulative_profile (t : t) : Event_graph.t =
  let g = Event_graph.create () in
  Event_graph.merge_into ~into:g t.profile;
  g

let profile_trace_entries (t : t) =
  t.trace_seen + Trace.length t.rt.Runtime.trace

(* Crash-recovery restore: fold a checkpointed profile graph back into
   the cumulative profile, crediting the trace entries it summarizes.
   The checkpointed graph already contains every window the dead
   controller absorbed plus its live trace, so a freshly created
   controller that absorbs it resumes profiling where the dead one
   stopped. *)
let absorb_graph (t : t) ~(graph : Event_graph.t) ~trace_entries =
  Event_graph.merge_into ~into:t.profile graph;
  t.trace_seen <- t.trace_seen + Stdlib.max 0 trace_entries

(* Ordered handler names bound to [event] right now — the binding
   signature a stored profile is checked against. *)
let live_signature (rt : Runtime.t) event =
  List.map (fun (h : Handler.t) -> h.Handler.name) (Runtime.handlers rt event)

type warm = {
  installed : int;     (* events that got super-handlers before any packet *)
  stale_events : int;  (* profile events rejected by the signature check *)
}

(* Warm start: derive a plan from a stored (merged, cross-run) profile
   graph and install it before any traffic arrives.  Safety is layered:
   (1) any plan action covering an event whose stored binding signature
   differs from the live bindings — or was recorded inconsistently
   ([signatures] omits it) — is dropped here as stale; (2) whatever is
   installed still sits behind the runtime's binding-version guards, so
   even a wrong profile degrades to generic dispatch (and trips the
   breaker) rather than misbehaving. *)
let warm_start (t : t) ~(graph : Event_graph.t)
    ~(signatures : (string * string list) list) : warm =
  let plan =
    Driver.plan_of_graph ~threshold:t.policy.threshold ~strategy:t.policy.strategy
      t.rt graph
  in
  let stale = ref [] in
  let fresh event =
    match List.assoc_opt event signatures with
    | Some stored when stored = live_signature t.rt event -> true
    | Some _ | None ->
      if not (List.mem event !stale) then stale := event :: !stale;
      false
  in
  let actions =
    List.filter
      (fun action ->
        let covered =
          match action with
          | Plan.Merge_event e -> [ e ]
          | Plan.Merge_chain { events; _ } -> events
        in
        (* [List.for_all] would short-circuit past later stale events;
           evaluate every event so the stale count is complete *)
        List.fold_left (fun acc e -> fresh e && acc) true covered)
      plan.Plan.actions
  in
  let stale_events = List.length !stale in
  t.warm_stale <- t.warm_stale + stale_events;
  if actions = [] then { installed = 0; stale_events }
  else begin
    let applied =
      Driver.apply ~compile:t.policy.compile t.rt { plan with Plan.actions }
    in
    t.fallbacks_at_last_opt <-
      t.rt.Runtime.stats.Runtime.fallbacks
      + t.rt.Runtime.stats.Runtime.segment_fallbacks;
    let installed = List.length applied.Driver.installed in
    t.warm_installed <- t.warm_installed + installed;
    { installed; stale_events }
  end

let warm_installed (t : t) = t.warm_installed
let warm_stale (t : t) = t.warm_stale
