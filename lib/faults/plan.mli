(** Deterministic, seed-driven fault injection.

    A {!spec} describes *what* to inject — handler crashes, handler
    latency spikes (virtual-time cost inflation), packet corruption
    before decode, and link-level drops — each as a permille rate.  A
    {!t} is a live injector: the spec plus one independent PRNG stream
    per fault kind, derived from [spec.seed] and a caller-chosen salt
    with a splitmix64 mixer.

    Independent streams mean the decision sequence of one fault kind
    does not shift when another kind's rate changes, and salting means
    every shard (and the broker front) draws from its own stream — so a
    fault scenario replays byte-identically run-to-run and across any
    domain count, exactly like the broker's seeded links. *)

(** Raised by injected handler crashes; shards catch it at the dispatch
    boundary like any other handler exception. *)
exception Injected_failure

type spec = {
  seed : int64;           (** base seed for every derived stream *)
  crash_permille : int;   (** handler exception during an op dispatch *)
  spike_permille : int;   (** handler latency spike during an op *)
  spike_cost : int;       (** virtual units one spike adds *)
  corrupt_permille : int; (** flip one wire byte before decode *)
  drop_permille : int;    (** drop the packet at link delivery *)
  kill_permille : int;    (** wipe a shard's live state at an epoch boundary *)
}

(** All rates zero (seed 1): injects nothing. *)
val none : spec

(** Any rate non-zero? *)
val enabled : spec -> bool

(** Parse a [--faults] spec: comma-separated [key=value] pairs with
    keys [seed] (int), [crash]/[spike]/[corrupt]/[drop]/[kill]
    (permille, 0..1000), and [spike] optionally as [rate:cost].  [""]
    and ["none"] mean {!none}.  Duplicate keys and empty fields are
    rejected with a clear error.  Example:
    ["seed=7,crash=200,spike=50:4000,drop=5,kill=100"]. *)
val of_string : string -> (spec, string) result

(** Canonical round-trippable form of a spec. *)
val to_string : spec -> string

(** A live injector: spec + per-fault-kind PRNG streams. *)
type t

(** The fault kinds an injector draws under, each with its own stream:
    ["crash"], ["spike"], ["corrupt"], ["drop"], ["kill"]. *)
val kinds : string list

(** [create ?salt spec] derives the injector's streams from
    [spec.seed] and [salt] (use the shard id; the broker front uses the
    default 0). *)
val create : ?salt:int -> spec -> t

val spec : t -> spec

(** The salt this injector's streams were derived with. *)
val salt : t -> int

(** Install (or remove, with [None]) a draw-decision logger: called
    once per actual stream advance with the injector's salt, the fault
    kind (one of {!kinds}), and whether the fault
    fired.  The record/replay layer uses this to capture — and on
    replay, verify — the exact fault-draw sequence of a run.  The
    logger must not itself draw from the injector. *)
val set_logger : t -> (salt:int -> kind:string -> fired:bool -> unit) option -> unit

(** One crash decision (advances only the crash stream). *)
val crash : t -> bool

(** One spike decision; [Some cost] when it fires. *)
val spike : t -> int option

(** One drop decision (the front's link-loss draw). *)
val drop : t -> bool

(** One corruption decision over the wire bytes; [Some b'] is a copy
    with one byte deterministically flipped, [None] means intact.  The
    input is never mutated. *)
val corrupt : t -> bytes -> bytes option

(** One kill decision (advances only the kill stream).  The broker
    supervisor draws this once per shard per epoch; [true] means the
    shard's live state is wiped and must be recovered from its latest
    checkpoint.  Callers should skip the draw entirely when
    [spec.kill_permille = 0] so kill-free runs log no kill draws. *)
val kill : t -> bool

(** Current position of every fault stream, keyed by fault kind —
    part of a shard checkpoint. *)
val stream_states : t -> (string * int64) list

(** Rewind the streams to positions captured by {!stream_states}.
    Kinds missing from the list are left untouched. *)
val set_stream_states : t -> (string * int64) list -> unit
