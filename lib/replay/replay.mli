(** The replayer: reconstruct a recorded run from its {!Log.t} alone
    and re-run it through {!Podopt_broker.Loadgen.steady}.

    Sessions are rebuilt by {!Podopt_broker.Loadgen.session} from the
    logged indices, payloads, starts and intervals, so their links and
    open-loop schedules draw from the seeds the recorded run drew from;
    fault injectors are rebuilt from the logged spec and every draw is
    verified against the log.  The regenerated JSON document equals the
    recorded one byte-for-byte at any [domains] (the document
    deliberately omits the domain count). *)

type outcome = {
  json : string;          (** the regenerated document *)
  fault_mismatches : int;
      (** replayed fault draws that differed from (or overran) the
          recorded streams — non-zero means a PRNG or fault-plan
          regression *)
  migration_mismatch : bool;
      (** the re-derived hot-shard migration plan differed from the
          log's [M] records.  Only checked when replaying at the
          recorded domain count (the plan is a pure function of
          recorded state {e and} [domains]); [true] means the
          scheduler's determinism regressed. *)
  summary : Podopt_broker.Loadgen.summary;
}

(** [run log] replays the log; [?domains] overrides the logged domain
    count, [?verify_faults] (default true) checks each fault draw
    against the log. *)
val run : ?domains:int -> ?verify_faults:bool -> Log.t -> outcome

(** First differing line of two documents as (1-based line number,
    first document's line, second's); [None] when byte-identical. *)
val first_diff : string -> string -> (int * string * string) option

(** {1 Building blocks (shared with the differential oracle)} *)

(** Rebuild one phase's sessions (["w"] or ["m"]) with
    {!Podopt_broker.Loadgen.session}, registering their nack callbacks
    with the broker. *)
val make_sessions :
  Podopt_broker.Broker.t -> Log.t -> string -> Podopt_broker.Session.t list
