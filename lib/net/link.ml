(* A simulated point-to-point link with latency, jitter, and probabilistic
   loss.  Delivery hands the encoded packet and its delay to the
   receiving endpoint; a runtime endpoint raises it as a timed event —
   exactly how external stimuli enter the paper's event model (Sec. 2.2,
   implicitly raised events). *)

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
  attempts : (int, int) Hashtbl.t;
      (* packet seq -> sends so far; kept only while a script or logger,
         its only readers, is installed *)
  mutable script : (Packet.t -> attempt:int -> int option) option;
  mutable logger : (Packet.t -> attempt:int -> int option -> unit) option;
}

let create ?(latency = 50) ?(jitter = 0) ?(loss_permille = 0) ?(seed = 42L) () =
  {
    latency;
    jitter;
    loss_permille;
    rng = Prng.create ~seed;
    stats = { sent = 0; delivered = 0; dropped = 0; bytes = 0 };
    attempts = Hashtbl.create 16;
    script = None;
    logger = None;
  }

(* Attempt counts start with the first send, so a script or logger must
   be installed before it: installed later, it would see counts that
   restarted at 0. *)
let check_install t what = function
  | Some _ when t.stats.sent > 0 ->
    invalid_arg (Printf.sprintf "Link.%s: the link has already sent" what)
  | _ -> ()

let set_script t script =
  check_install t "set_script" script;
  t.script <- script

let set_logger t logger =
  check_install t "set_logger" logger;
  t.logger <- logger

(* Send [packet] towards [dst]; on delivery [deliver_event dst ~delay]
   receives the encoded packet.  The outcome — [None] lost, [Some delay]
   delivered — comes from the loss/jitter PRNG unless a script overrides
   it; either way the logger sees it. *)
let send t dst ~deliver_event (packet : Packet.t) =
  t.stats.sent <- t.stats.sent + 1;
  t.stats.bytes <- t.stats.bytes + Packet.size packet;
  let attempt =
    match t.script, t.logger with
    | None, None -> 0
    | _ ->
      let seq = packet.Packet.seq in
      let attempt = Option.value ~default:0 (Hashtbl.find_opt t.attempts seq) in
      Hashtbl.replace t.attempts seq (attempt + 1);
      attempt
  in
  let outcome =
    match t.script with
    | Some script -> script packet ~attempt
    | None ->
      if Prng.bool t.rng ~permille:t.loss_permille then None
      else
        Some (t.latency + (if t.jitter > 0 then Prng.int t.rng t.jitter else 0))
  in
  (match t.logger with Some log -> log packet ~attempt outcome | None -> ());
  match outcome with
  | None -> t.stats.dropped <- t.stats.dropped + 1
  | Some delay ->
    t.stats.delivered <- t.stats.delivered + 1;
    deliver_event dst ~delay (Packet.encode packet)

let raise_timed event rt ~delay wire =
  Runtime.raise_timed rt event ~delay [ Podopt_hir.Value.Bytes wire ]

let stats t = t.stats
