(** A simulated point-to-point link with latency, jitter, and
    probabilistic loss.  Delivery hands the encoded packet and its delay
    to the receiving endpoint; a runtime endpoint ({!raise_timed})
    raises it as a timed event — how external stimuli enter the paper's
    event model (implicitly raised events, Sec. 2.2). *)

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

(** Replace the link's loss/jitter draws with a scripted outcome
    source: called per send with the packet and its per-seq attempt
    index (0 for the first send of that seq); [None] loses the packet,
    [Some delay] delivers after [delay] units.  While a script is
    installed the link's PRNG is never advanced.  [None] restores the
    probabilistic behaviour.  The replay layer uses this to re-impose a
    recorded arrival schedule.  Attempts are counted only while a script
    or logger is installed, so installing either after the link's first
    send raises [Invalid_argument]. *)
val set_script : t -> (Packet.t -> attempt:int -> int option) option -> unit

(** Observe every send's outcome ([None] lost, [Some delay] delivered)
    together with the packet and its per-seq attempt index; scripted
    and probabilistic outcomes both pass through.  The run recorder
    captures the arrival schedule here.  Like {!set_script}, it must be
    installed before the first send. *)
val set_logger : t -> (Packet.t -> attempt:int -> int option -> unit) option -> unit

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
