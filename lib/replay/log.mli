(** Versioned on-disk run log for deterministic record/replay.

    A log holds the workload a broker run was given — the broker
    configuration, the workload profile, and every session's index, op
    payloads, start and interval (per phase: [w]arm-up and [m]easured)
    — plus, for verification, the fault plan's draw decisions, the
    migration plan and the run's [serve --json] document.  What the
    config's seeds draw (link delays, open-loop schedules, fault
    streams) is re-derived on replay, not logged.

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
  s_index : int;
      (** the session's index in {!Podopt_broker.Loadgen}, which seeds
          its link and schedule; kept when a shrink drops sessions *)
  s_start : int;     (** absolute front-clock time of the first op *)
  s_interval : int;
  s_ops : bytes array;
}

type t = {
  config : Broker.config;
  profile : Loadgen.profile;
  warmup_ops : int;
  metrics : bool;          (** the recorded document included metrics *)
  sessions : sess list;    (** creation order, warm-up phase first *)
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

(** Raises {!Podopt_codec.Lines.Format_error} on malformed input
    (including a negative session index or op count) or a [V] line
    naming a version other than {!version}. *)
val of_string : string -> t

(** Sessions of phase ["w"] or ["m"], in creation order. *)
val phase_sessions : t -> string -> sess list
