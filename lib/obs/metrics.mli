(** A broker shard's metrics: four fixed histograms plus one
    dispatch-time histogram per event name, all integer-valued and
    virtual-time-deterministic.

    Queue wait is a log-bucketed {!Hist}; service time and batch depth
    are {!Exact} (full-resolution) histograms, because the
    deterministic cost model lands per-op costs on a handful of exact
    values that one log bucket would collapse into a degenerate
    p50 = p90 = p99 = max.

    {!merge_into} merges histograms bucket-wise and unions the event
    names — associative and commutative, so per-shard metrics fold into
    one total in any order with a byte-identical result. *)

type t = {
  queue_wait : Hist.t;   (** front-clock units from arrival to drain *)
  service_opt : Exact.t; (** per-op cost of ops that took the optimized path *)
  service_gen : Exact.t; (** per-op cost of the other ops *)
  batch_depth : Exact.t; (** ops per non-empty drain *)
  events : (string, Hist.t) Hashtbl.t;
      (** dispatch time by event name; use {!event} and {!events} *)
}

(** Every histogram empty, no event names. *)
val create : unit -> t

(** The named event's dispatch-time histogram, created empty if
    absent.  The handle is live and survives {!reset}. *)
val event : t -> string -> Hist.t

(** Every event's histogram, sorted by name. *)
val events : t -> (string * Hist.t) list

(** Merge [src] into [dst] in place; [src] is left untouched. *)
val merge_into : dst:t -> t -> unit

(** Fold a list of metrics into a fresh one; the arguments are left
    untouched. *)
val merge_all : t list -> t

(** Empty every histogram; event names survive. *)
val reset : t -> unit
