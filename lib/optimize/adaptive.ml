(* On-line adaptive re-optimization (Sec. 5: "on-line analysis and
   optimization ... are potential extensions to this work").

   Instead of the paper's off-line, manual profile-then-optimize cycle,
   this controller keeps event-level recording on, watches the runtime's
   fallback counter, and re-runs analyze/apply from the trace window
   whenever the installed super-handlers stop matching the live bindings.
   Correctness is unaffected (the guards already ensure that); this
   merely restores the fast path automatically after reconfiguration.
   The window is counters only (node and edge counts, Trace): the
   controller never turns the entry log on, so on-line profiling keeps
   no per-occurrence record.

   The controller also absorbs every window into a persistent profile
   graph ([cumulative_profile]): the event-graph counters survive the
   window resets that follow each re-optimization, so a whole run's
   observations can be serialized into a profile store and warm-start
   the next run ([warm_start]). *)

open Podopt_eventsys
open Podopt_profile

type policy = {
  fallback_limit : int;   (* re-optimize after this many fallbacks *)
  min_trace : int;        (* but only once the window has this many occurrences *)
  threshold : int;        (* analysis threshold W *)
  strategy : Plan.chain_strategy;
  max_trace : int;        (* absorb a window that grows past this *)
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
   never trigger (the bound resets the window below the minimum), and a
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
      (* cumulative graph of every window already absorbed; the live
         window sits on top of it *)
  mutable trace_seen : int;  (* occurrences absorbed into [profile] *)
  mutable fallbacks_at_last_opt : int;
  mutable reoptimizations : int;
  mutable warm_installed : int;  (* super-handlers installed by warm_start *)
  mutable warm_stale : int;      (* profile events warm_start rejected *)
  mutable plan : Plan.t option;  (* the plan last installed *)
}

(* Create the controller and turn on event counting, without the entry
   log.  The runtime keeps paying a few increments per occurrence; that
   is the price of on-line profiling.  Raises [Invalid_argument] on an
   inconsistent policy. *)
let create ?(policy = default_policy) (rt : Runtime.t) : t =
  validate_policy policy;
  Trace.enable_events ~log:false rt.Runtime.trace;
  {
    rt;
    policy;
    profile = Event_graph.create ();
    trace_seen = 0;
    fallbacks_at_last_opt = 0;
    reoptimizations = 0;
    warm_installed = 0;
    warm_stale = 0;
    plan = None;
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
  Trace.occurrences t.rt.Runtime.trace >= t.policy.min_trace
  && ((* nothing installed yet: perform the initial optimization *)
      Runtime.optimized_events t.rt = []
     || fallbacks_since_last t >= t.policy.fallback_limit)

(* Merge the live window into the cumulative profile and start a new
   one, so no occurrence is counted twice and none is lost. *)
let absorb_trace (t : t) =
  let trace = t.rt.Runtime.trace in
  let n = Trace.occurrences trace in
  if n > 0 then begin
    Event_graph.merge_trace ~into:t.profile trace;
    t.trace_seen <- t.trace_seen + n
  end;
  Trace.clear trace

(* Install [plan] and re-baseline the fallback counter against the
   runtime's current one, so only fallbacks after the install count
   toward the next re-optimization. *)
let install (t : t) (plan : Plan.t) : Driver.applied =
  let applied = Driver.apply ~compile:t.policy.compile t.rt plan in
  t.fallbacks_at_last_opt <-
    t.rt.Runtime.stats.Runtime.fallbacks
    + t.rt.Runtime.stats.Runtime.segment_fallbacks;
  t.plan <- Some plan;
  applied

(* The plan last installed, while anything is installed: a breaker trip
   that uninstalled every super-handler leaves nothing to report. *)
let installed_plan (t : t) =
  if Runtime.optimized_events t.rt = [] then None else t.plan

(* Re-analyze from the live window and reinstall.  Returns the applied
   report when a re-optimization happened. *)
let reoptimize (t : t) : Driver.applied option =
  let plan =
    Driver.analyze ~threshold:t.policy.threshold ~strategy:t.policy.strategy t.rt
  in
  if plan.Plan.actions = [] then None
  else begin
    let applied = install t plan in
    t.reoptimizations <- t.reoptimizations + 1;
    absorb_trace t;
    Some applied
  end

(* Poll: call periodically (e.g. from the application's idle loop).
   Bounds the window and re-optimizes when the policy triggers.  A window
   past [max_trace] is absorbed whole into the cumulative profile, so
   nothing is lost; re-optimization then waits for [min_trace] new
   occurrences. *)
let tick (t : t) : Driver.applied option =
  if Trace.occurrences t.rt.Runtime.trace > t.policy.max_trace then absorb_trace t;
  if should_reoptimize t then reoptimize t else None

let reoptimizations (t : t) = t.reoptimizations

(* --- the persistent profile and crash recovery --------------------------- *)

type saved = {
  absorbed : Event_graph.t;     (* a copy of [profile] *)
  absorbed_entries : int;       (* [trace_seen] *)
  window : Trace.window;        (* the live window *)
  fallback_baseline : int;      (* [fallbacks_at_last_opt] *)
  plan : Plan.t option;         (* [installed_plan] *)
}

let save (t : t) : saved =
  {
    absorbed = Event_graph.merge_all [ t.profile ];
    absorbed_entries = t.trace_seen;
    window = Trace.save t.rt.Runtime.trace;
    fallback_baseline = t.fallbacks_at_last_opt;
    plan = installed_plan t;
  }

(* Every absorbed window plus the live one, merged into a fresh graph,
   and the occurrences they count. *)
let saved_profile (s : saved) =
  let g = Event_graph.merge_all [ s.absorbed ] in
  Event_graph.merge_window ~into:g s.window;
  (g, s.absorbed_entries + s.window.Trace.window_occurrences)

let cumulative_profile (t : t) = fst (saved_profile (save t))

let profile_trace_entries (t : t) =
  t.trace_seen + Trace.occurrences t.rt.Runtime.trace

(* Put a dead controller's state into a fresh one.  Every decision the
   controller makes reads the live window (when to re-optimize, what to
   install) or the installed plan, so a restore that loads both decides
   exactly as the dead controller would have; re-planning from the
   cumulative graph would not: a graph recorded while super-handlers
   ran no longer shows the chains they subsume. *)
let restore (t : t) (s : saved) =
  Event_graph.merge_into ~into:t.profile s.absorbed;
  t.trace_seen <- t.trace_seen + s.absorbed_entries;
  Trace.load t.rt.Runtime.trace ~intern:(Runtime.event t.rt) s.window;
  Option.iter (fun plan -> ignore (install t plan)) s.plan;
  t.fallbacks_at_last_opt <- s.fallback_baseline

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
    let applied = install t { plan with Plan.actions } in
    let installed = List.length applied.Driver.installed in
    t.warm_installed <- t.warm_installed + installed;
    { installed; stale_events }
  end

let warm_installed (t : t) = t.warm_installed
let warm_stale (t : t) = t.warm_stale
