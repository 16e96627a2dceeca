(* Stacked composite protocols: SecComm over CTP over a lossy link.

   Cactus services compose by stacking composite protocols; here the
   secure channel's wire output feeds the transport's send path on the
   sender, and the transport's reassembled messages feed the secure
   channel's pop path on the receiver:

     app --> SecComm push --(udp_tx)--> CTP send --(tx segments)-->
       lossy link --> CTP receive/reassemble --(msg_deliver)-->
         SecComm pop --(deliver)--> app

   Sender and receiver are separate runtimes with independent virtual
   clocks, connected only by the simulated link.  Fragment loss corrupts
   a reassembled message; the KeyedMD5 layer detects it and halts that
   message's delivery (counted in [mac_failures]), so the end-to-end
   delivered messages are always intact. *)

open Podopt_eventsys
module V = Podopt_hir.Value
module Sec = Podopt_seccomm.Seccomm
module Ctp = Podopt_ctp.Ctp
open Podopt_net

type t = {
  sender : Runtime.t;    (* SecComm push + CTP sender *)
  receiver : Runtime.t;  (* CTP receiver + SecComm pop *)
  link : Link.t;
  mutable sent : int;
  mutable delivered : (int * bytes) list;  (* reversed arrival order *)
}

let secure_config = { Sec.paper_config with Sec.mac = true }

(* Wire the sender: SecComm wire bytes become CTP messages; CTP segments
   go onto the link. *)
let wire_sender (t : t) =
  Runtime.on_emit t.sender (fun tag args ->
      match tag, args with
      | "udp_tx", [ V.Bytes wire ] -> Ctp.send t.sender ~priority:1 wire
      | "tx", [ V.Bytes seg; V.Int n ] ->
        Link.send t.link t.receiver ~deliver_event:(Link.raise_timed "LinkIn")
          (Packet.make ~src:"sender" ~dst:"receiver" ~seq:n seg)
      | _ -> ())

(* Wire the receiver: link packets enter the CTP receive path; whole
   reassembled messages are popped up the secure channel; decrypted
   plaintext reaches the application. *)
let wire_receiver (t : t) =
  Runtime.bind t.receiver ~event:"LinkIn"
    (Handler.native "link_in" (fun host args ->
         match args with
         | [ V.Bytes raw ] ->
           let packet = Packet.decode raw in
           host.Podopt_hir.Interp.raise_event Podopt_ctp.Events.rcv_packet
             Podopt_hir.Ast.Sync
             [ V.Bytes packet.Packet.payload ]
         | _ -> ()));
  Runtime.on_emit t.receiver (fun tag args ->
      match tag, args with
      | "msg_deliver", [ V.Bytes wire; V.Int _msgid ] -> Sec.pop t.receiver wire
      | "deliver", [ V.Bytes plain ] ->
        t.delivered <- (List.length t.delivered, plain) :: t.delivered
      | _ -> ())

(* Build the stack.  The receiver runtime hosts both the CTP receiving
   micro-protocols and a SecComm instance; the sender hosts SecComm and
   the CTP sender. *)
let create ?(latency = 200) ?(jitter = 0) ?(loss_permille = 0) ?(seed = 7L) () : t =
  let sender = Sec.create ~config:secure_config () in
  Podopt_cactus.Composite.instantiate sender (Ctp.sender_composite ());
  Ctp.open_session sender;
  sender.Runtime.emit_log_enabled <- false;
  let receiver = Sec.create ~config:secure_config () in
  Podopt_cactus.Composite.instantiate receiver (Ctp.full_composite ());
  receiver.Runtime.emit_log_enabled <- false;
  let t =
    {
      sender;
      receiver;
      link = Link.create ~latency ~jitter ~loss_permille ~seed ();
      sent = 0;
      delivered = [];
    }
  in
  wire_sender t;
  wire_receiver t;
  t

(* Send one application message end to end (encrypt, fragment,
   transmit). *)
let send (t : t) (msg : bytes) : unit =
  t.sent <- t.sent + 1;
  Sec.push t.sender msg

(* Drain both sides: the sender's timers and the receiver's pending link
   deliveries. *)
let settle (t : t) : unit =
  Runtime.run t.sender;
  Runtime.run t.receiver

let delivered (t : t) : bytes list = List.rev_map snd t.delivered
let mac_failures (t : t) : int = Sec.stat t.receiver "mac_failures"
let link_stats (t : t) = Link.stats t.link

(* Optimize both sides with the paper's pipeline, using a representative
   exchange as the profiling workload. *)
let optimize (t : t) : unit =
  let workload () =
    for i = 1 to 15 do
      send t (Bytes.make (200 + (i * 97 mod 800)) (Char.chr (i land 0xff)))
    done;
    settle t
  in
  ignore (Podopt_optimize.Driver.profile_and_optimize ~threshold:10 t.sender
            ~workload:(fun () -> workload ()));
  ignore
    (Podopt_optimize.Driver.profile_and_optimize ~threshold:10 t.receiver
       ~workload:(fun () -> workload ()))
