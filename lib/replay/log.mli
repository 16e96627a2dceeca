(** Versioned on-disk run log for deterministic record/replay.

    A log captures everything a broker run consumes — the broker
    configuration, the workload profile, every session's op payloads
    and schedule (per phase: [w]arm-up and [m]easured), the packet
    arrival schedule the links produced, and the fault plan's draw
    decisions — plus the run's [serve --json] document, so a replay
    can be checked for byte-identity.

    The format is line-oriented text framed by {!Podopt_codec.Lines}:
    one record per line, whitespace-separated fields, [#] comments, the
    embedded profile store and JSON document carried verbatim, and a
    {!Podopt_codec.Lines.Format_error} on anything malformed.  Files are
    written and read with {!Podopt_codec.Lines.save} and
    {!Podopt_codec.Lines.load}.  See [log.ml] for the exact grammar. *)

module Broker = Podopt_broker.Broker
module Loadgen = Podopt_broker.Loadgen

(** The current (and only) format version, written as the [V] line. *)
val version : int

type sess = {
  s_phase : string;  (** ["w"] warm-up or ["m"] measured *)
  s_id : string;
  s_start : int;     (** absolute front-clock time of the first op *)
  s_interval : int;
  s_ops : bytes array;
}

type arrival = {
  a_phase : string;
  a_sid : string;
  a_seq : int;
  a_attempt : int;  (** per-seq send attempt, 0 = first *)
  a_outcome : int;  (** link delivery delay, or [-1] for a lost packet *)
}

type t = {
  config : Broker.config;
  profile : Loadgen.profile;
  warmup_ops : int;
  metrics : bool;          (** the recorded document included metrics *)
  sessions : sess list;    (** creation order, warm-up phase first *)
  arrivals : arrival list; (** send order *)
  fault_draws : ((int * string) * bool list) list;
      (** (salt, fault kind) -> fired bits in draw order, key-sorted *)
  migrations : (int * int * int * int) list;
      (** the measured phase's hot-shard migration plan, decision
          order: [(epoch, shard, from_worker, to_worker)].  A pure
          function of recorded state — a replay at the recorded domain
          count must re-derive it exactly (verified by {!Replay.run}). *)
  json : string;           (** the recorded run's JSON document *)
}

val to_string : t -> string

(** Raises {!Podopt_codec.Lines.Format_error} on malformed input or a
    [V] line naming a version other than {!version}. *)
val of_string : string -> t

(** Sessions of phase ["w"] or ["m"], in creation order. *)
val phase_sessions : t -> string -> sess list
