(** Circuit breaker for the optimized dispatch path.

    The paper's guards make a mis-matched super-handler *correct* (stale
    guards fall back to generic dispatch, Sec. 3.3) but not *cheap*: a
    shard that keeps falling back — or whose optimized path keeps
    failing — pays guard checks and retries forever.  The breaker closes
    that loop: it watches the fault rate (guard fallbacks + handler
    failures) over a sliding window of batches and, when the rate
    crosses the trip threshold, tells the owner to uninstall its
    super-handlers and serve generic until a cool-down expires, after
    which the adaptive controller may re-optimize from the live trace.

    State machine: [Closed] (optimized path allowed, window recording)
    -> trip -> [Open] (generic only, cool-down counting down in batches)
    -> recover -> [Closed] with an empty window. *)

type policy = {
  window : int;         (** batches in the sliding window *)
  trip_permille : int;  (** trip when window faults/events >= this rate *)
  min_events : int;     (** ... but only once the window covers this many events *)
  cooldown : int;       (** batches to serve generic before re-optimizing *)
}

(** window 8, trip at 150 permille over >= 16 events, cool-down 16. *)
val default_policy : policy

type t

val create : ?policy:policy -> unit -> t
val policy : t -> policy

type outcome =
  | Ok         (** closed, rate below threshold *)
  | Tripped    (** just opened: uninstall super-handlers now *)
  | Cooling    (** open, cool-down still counting down *)
  | Recovered  (** just closed again: re-optimization allowed *)

(** Record one drained batch ([events] ops, [faults] of them faulty:
    guard fallbacks plus handler failures) and advance the state
    machine. *)
val observe : t -> events:int -> faults:int -> outcome

val is_open : t -> bool

(** Times the breaker tripped since creation (or the last reset). *)
val trips : t -> int

(** Forget trip counts and window contents; keeps the current state
    machine position (the measurement boundary must not close an open
    breaker). *)
val reset_measurements : t -> unit

(** An independent copy: its window, state machine position and trip
    count, none of it shared.  A checkpoint keeps one, and a restore
    puts a copy of that back. *)
val copy : t -> t
