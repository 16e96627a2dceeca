(* A client session.  The retry queue reuses Equeue so that retries due
   at the same tick replay in nack order — the whole pipeline keeps one
   ordering discipline. *)

open Podopt_eventsys
module Packet = Podopt_net.Packet
module Link = Podopt_net.Link

type stats = {
  mutable sent : int;
  mutable retries : int;
  mutable nacks : int;
  mutable gave_up : int;
}

type t = {
  id : string;
  link : Link.t;
  ops : bytes array;
  start : int;
  interval : int;
  schedule : int array option;  (* open-loop per-op due times *)
  backoff : Policy.backoff;
  retryq : int Equeue.t;  (* due -> op seq *)
  attempts : (int, int) Hashtbl.t;
  abandoned : (int, unit) Hashtbl.t;  (* seqs already counted gave_up *)
  mutable next_op : int;
  mutable waker : (int -> unit) option;
  stats : stats;
}

let create ~id ~link ~ops ?(start = 0) ?(interval = 200) ?schedule ~backoff () =
  (match schedule with
   | Some d when Array.length d <> Array.length ops ->
     invalid_arg "Session.create: schedule length <> ops length"
   | _ -> ());
  {
    id;
    link;
    ops;
    start;
    interval;
    schedule;
    backoff;
    retryq = Equeue.create ();
    attempts = Hashtbl.create 8;
    abandoned = Hashtbl.create 4;
    next_op = 0;
    waker = None;
    stats = { sent = 0; retries = 0; nacks = 0; gave_up = 0 };
  }

let id t = t.id
let ops t = t.ops
let start t = t.start
let interval t = t.interval
let finished t = t.next_op >= Array.length t.ops && Equeue.is_empty t.retryq

(* The scheduled first-send time of op [seq]. *)
let due_of t seq =
  match t.schedule with
  | Some d -> d.(seq)
  | None -> t.start + (seq * t.interval)

(* Earliest pending work: the next first-send or the earliest queued
   retry, whichever comes first.  None iff finished. *)
let next_due t =
  let retry = Equeue.next_due t.retryq in
  if t.next_op < Array.length t.ops then Some (min (due_of t t.next_op) retry)
  else if Equeue.is_empty t.retryq then None
  else Some retry

let set_waker t waker = t.waker <- waker

let horizon t =
  if Array.length t.ops = 0 then t.start
  else due_of t (Array.length t.ops - 1)

let send_op t ~rt ~deliver_event ~seq ~retry =
  let pkt = Packet.make ~src:t.id ~dst:"broker" ~seq t.ops.(seq) in
  if retry then t.stats.retries <- t.stats.retries + 1
  else t.stats.sent <- t.stats.sent + 1;
  Link.send t.link rt ~deliver_event pkt

let pump t ~now ~rt ~deliver_event =
  while Equeue.next_due t.retryq <= now && not (Equeue.is_empty t.retryq) do
    send_op t ~rt ~deliver_event ~seq:(Equeue.take t.retryq) ~retry:true
  done;
  while t.next_op < Array.length t.ops && due_of t t.next_op <= now do
    send_op t ~rt ~deliver_event ~seq:t.next_op ~retry:false;
    t.next_op <- t.next_op + 1
  done

let nack t ~seq ~now =
  (* A corrupted header can carry a seq this session never sent: drop
     it before it touches a stat — the outcome a corrupted src naming no
     session already gets — or its retry would index past [ops]. *)
  if seq >= 0 && seq < Array.length t.ops then begin
    t.stats.nacks <- t.stats.nacks + 1;
    (* A seq that already gave up is latched: late nacks for it (e.g. a
       duplicate shed racing the abandonment) must not re-enter the
       backoff machinery or bump gave_up again. *)
    if not (Hashtbl.mem t.abandoned seq) then begin
      let attempt =
        1 + (match Hashtbl.find_opt t.attempts seq with Some a -> a | None -> 0)
      in
      if Policy.exhausted t.backoff ~attempt then begin
        t.stats.gave_up <- t.stats.gave_up + 1;
        (* drop the attempts entry (it would otherwise leak for the
           session's lifetime) and latch the abandonment *)
        Hashtbl.remove t.attempts seq;
        Hashtbl.replace t.abandoned seq ()
      end
      else begin
        Hashtbl.replace t.attempts seq attempt;
        let due = now + Policy.delay t.backoff ~attempt in
        Equeue.push t.retryq ~due seq;
        match t.waker with Some wake -> wake due | None -> ()
      end
    end
  end

let stats t = t.stats
