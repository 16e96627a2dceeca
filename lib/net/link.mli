(** A simulated point-to-point link with latency, jitter, and
    probabilistic loss.  Delivery hands the encoded packet and its delay
    to the receiving endpoint; a runtime endpoint ({!raise_timed})
    raises it as a timed event — how external stimuli enter the paper's
    event model (implicitly raised events, Sec. 2.2).

    Every loss and jitter draw comes from the link's own seeded PRNG,
    so two links created alike deliver the same sequence of sends with
    the same delays: the replayer rebuilds a recorded run's links from
    their seeds instead of logging their outcomes. *)

open Podopt_eventsys

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
}

type t

(** Defaults: latency 50 units, no jitter, no loss, seed 42. *)
val create :
  ?latency:int -> ?jitter:int -> ?loss_permille:int -> ?seed:int64 -> unit -> t

(** [send t dst ~deliver_event packet]: on (probabilistic) delivery,
    [deliver_event dst ~delay wire] receives the encoded packet and its
    latency(+jitter) [delay]; a lost packet calls nothing.  The wire is
    a fresh buffer the endpoint owns. *)
val send :
  t -> 'dst -> deliver_event:('dst -> delay:int -> bytes -> unit) ->
  Packet.t -> unit

(** The [deliver_event] of a runtime endpoint: [raise_timed event rt
    ~delay wire] raises [event] on [rt] after [delay] units, with the
    wire as its single argument. *)
val raise_timed : string -> Runtime.t -> delay:int -> bytes -> unit

val stats : t -> stats
