(** An optimization plan: the analysis output that {!Driver.apply} turns
    into installed super-handlers.

    The knobs correspond to the ablation axes of the evaluation: handler
    merging, chain subsumption, compiler passes on merged bodies, guard
    strategy, and speculation. *)

open Podopt_hir

type chain_strategy =
  | Monolithic   (** Sec. 3.3: whole-chain fallback on any rebinding *)
  | Partitioned  (** Fig. 14: per-event guards inside the super-handler *)

type action =
  | Merge_event of string
      (** build a super-handler for one event's handler list *)
  | Merge_chain of { events : string list; strategy : chain_strategy }
      (** merge a synchronous event chain across event boundaries *)

type t = {
  actions : action list;
  threshold : int;              (** edge-weight threshold W of the analysis *)
  passes : Pipeline.pass list;  (** compiler passes applied to merged bodies *)
  subsume : bool;               (** inline nested sync raises of covered events *)
  speculate : (string * string) list;  (** successor-prefetch pairs (Sec. 5) *)
}

val default_passes : Pipeline.pass list

(** No actions, all defaults; build plans with [{ Plan.empty with ... }]. *)
val empty : t

val events_of_action : action -> string list

(** All events any action covers, sorted and deduplicated. *)
val covered_events : t -> string list

val pp_action : Format.formatter -> action -> unit
val pp : Format.formatter -> t -> unit
