(** A simulated point-to-point link with latency, jitter, and
    probabilistic loss.  Delivery raises a timed event on the receiving
    runtime — how external stimuli enter the paper's event model
    (implicitly raised events, Sec. 2.2). *)

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

(** Send towards [rt]: on (probabilistic) delivery, [deliver_event] is
    raised after latency(+jitter) with the encoded packet as its single
    argument. *)
val send : t -> Runtime.t -> deliver_event:string -> Packet.t -> unit

val stats : t -> stats
