(* A simulated point-to-point link with latency, jitter, and probabilistic
   loss.  Delivery hands the encoded packet and its delay to the
   receiving endpoint; a runtime endpoint raises it as a timed event —
   exactly how external stimuli enter the paper's event model (Sec. 2.2,
   implicitly raised events).  Outcomes are seeded draws only, so the
   replayer re-derives them from the seed rather than from a log. *)

open Podopt_eventsys

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
}

type t = {
  latency : int;          (* virtual time units *)
  jitter : int;           (* max extra units, uniform *)
  loss_permille : int;
  rng : Prng.t;
  stats : stats;
}

let create ?(latency = 50) ?(jitter = 0) ?(loss_permille = 0) ?(seed = 42L) () =
  {
    latency;
    jitter;
    loss_permille;
    rng = Prng.create ~seed;
    stats = { sent = 0; delivered = 0; dropped = 0; bytes = 0 };
  }

(* Send [packet] towards [dst]; on delivery [deliver_event dst ~delay]
   receives the encoded packet.  The loss draw comes first, then the
   jitter draw of a delivered packet. *)
let send t dst ~deliver_event (packet : Packet.t) =
  t.stats.sent <- t.stats.sent + 1;
  t.stats.bytes <- t.stats.bytes + Packet.size packet;
  if Prng.bool t.rng ~permille:t.loss_permille then
    t.stats.dropped <- t.stats.dropped + 1
  else begin
    let delay =
      t.latency + (if t.jitter > 0 then Prng.int t.rng t.jitter else 0)
    in
    t.stats.delivered <- t.stats.delivered + 1;
    deliver_event dst ~delay (Packet.encode packet)
  end

let raise_timed event rt ~delay wire =
  Runtime.raise_timed rt event ~delay [ Podopt_hir.Value.Bytes wire ]

let stats t = t.stats
