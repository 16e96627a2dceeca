(** CTP: the configurable transport protocol of the paper's video-player
    experiment (Sec. 4.2), assembled from Cactus micro-protocols.

    The sender-side handler sequences reproduce Fig. 8:

    {v
    SegFromUser: FEC-SFU1 (10), SeqSeg-SFU (20), TDriver-SFU (30), FEC-SFU2 (40)
    Seg2Net:     PAU-S2N (10),  WFC-S2N (20),    FEC-S2N (30),     TD-S2N (40)
    v}

    with TDriver-SFU synchronously raising Seg2Net from inside
    SegFromUser handling — the subsumption example of Fig. 9. *)

open Podopt_eventsys

val sender_composite : unit -> Podopt_cactus.Composite.t
val full_composite : unit -> Podopt_cactus.Composite.t

(** Without FEC, for configuration-comparison experiments. *)
val minimal_composite : unit -> Podopt_cactus.Composite.t

(** With AIMD congestion control added: SegmentAcked and SegmentTimeout
    become multi-handler events. *)
val extended_composite : unit -> Podopt_cactus.Composite.t

(** Create a runtime hosting a CTP instance (installs the crypto HIR
    primitives; [with_receiver] adds the receiving-side
    micro-protocols). *)
val create :
  ?costs:Costs.model -> ?with_receiver:bool -> ?minimal:bool -> ?extended:bool ->
  unit -> Runtime.t

(** Raise [Open] (announce + register system input). *)
val open_session : Runtime.t -> unit

(** Send a user message through [SendMsg] (priority > 0 routes through
    MsgFrmUserH, otherwise MsgFrmUserL). *)
val send : Runtime.t -> ?priority:int -> bytes -> unit

(** Raise the (asynchronous) statistics [Sample] event. *)
val sample : Runtime.t -> unit

(** Read an integer statistic from CTP shared state (0 if unset). *)
val stat : Runtime.t -> string -> int

val sent_count : Runtime.t -> int
val delivered : Runtime.t -> int
val acks : Runtime.t -> int
val retrans : Runtime.t -> int
val frag_size : Runtime.t -> int
