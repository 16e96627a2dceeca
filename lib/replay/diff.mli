(** The differential oracle: execute one recorded log under two broker
    variants and diff their per-session observable outcomes.

    Three axes: {!Optimizer} (adaptive optimization on vs off),
    {!Codegen} (compiled vs interpreted super-handlers), and {!Killed}
    (shard kills with checkpoint recovery vs a kill-free run — the
    recorded kill rate, or a default heavy rate when the run was
    recorded without kills).  The compared
    observables — dispatch order, per-attempt success, a CRC-32 digest
    of every dispatched payload, and each client's
    sent/retry/nack/gave-up accounting — are independent of the cost
    model, so the variants' legitimately different virtual costs never
    produce a false divergence.

    On divergence the log is shrunk to a minimal reproducer by greedy
    delta debugging: drop sessions one at a time, then lower the
    per-session measured op cap, keeping each cut iff the divergence
    survives. *)

type axis = Optimizer | Codegen | Killed

val axis_label : axis -> string

type shrink = {
  orig_sessions : int;
  orig_ops : int;
  kept : string list;      (** surviving session ids *)
  ops_cap : int;           (** surviving measured ops per session *)
  minimal : Log.t;         (** the minimal reproducer (no fault draws / document) *)
  min_divergence : string * string * string;
      (** (what, left, right) on the minimal log *)
}

type report = {
  axis : axis;
  deliveries : int;  (** deliveries observed on the first variant *)
  divergence : (string * string * string) option;
  shrink : shrink option;  (** present iff a divergence was found *)
}

(** The deliberately-broken-handler fixture installed by [?tamper]:
    corrupts every odd-seq op's payload before dispatch on the first
    variant only — a stand-in for a miscompiled super-handler. *)
val break_handler : Podopt_net.Packet.t -> bytes

(** [run axis log] executes both variants (sequentially, any logged
    domain count forced to 1) and shrinks on divergence.  [?tamper]
    installs {!break_handler} on the first variant's measured phase. *)
val run : ?tamper:bool -> axis -> Log.t -> report

val pp_report : Format.formatter -> report -> unit
