(* CTP: the configurable transport protocol assembled from micro-protocols
   (the substrate of the paper's video-player experiment, Sec. 4.2).

   The sender-side handler sequences reproduce Fig. 8 exactly:

     SegFromUser: FEC-SFU1 (10), SeqSeg-SFU (20), TDriver-SFU (30), FEC-SFU2 (40)
     Seg2Net:     PAU-S2N (10),  WFC-S2N (20),    FEC-S2N (30),     TD-S2N (40)

   with TDriver-SFU synchronously raising Seg2Net from inside SegFromUser
   handling — the subsumption example of Fig. 9. *)

open Podopt_cactus
open Podopt_eventsys

(* The default configuration reproduces Fig. 8's handler sequences
   exactly (four handlers on SegFromUser and on Seg2Net). *)
let sender_composite () : Composite.t =
  Composite.make ~name:"CTP"
    [ Transport_driver.mp; Fec.mp; Sequencer.mp; Flow_control.mp; Controller.mp; Adapt_mp.mp ]

let full_composite () : Composite.t =
  Composite.make ~name:"CTP+Receiver"
    [
      Transport_driver.mp; Fec.mp; Sequencer.mp; Flow_control.mp; Controller.mp;
      Adapt_mp.mp; Resequencer.mp; Receiver.mp;
    ]

(* CTP is *configurable*; alternative configurations for comparison
   experiments: a minimal stack, and an extended one adding AIMD
   congestion control (SegmentAcked/SegmentTimeout become multi-handler
   events). *)
let minimal_composite () : Composite.t =
  Composite.make ~name:"CTP-minimal"
    [ Transport_driver.mp; Sequencer.mp; Flow_control.mp; Controller.mp; Adapt_mp.mp ]

let extended_composite () : Composite.t =
  Composite.make ~name:"CTP-extended"
    [
      Transport_driver.mp; Fec.mp; Sequencer.mp; Flow_control.mp; Congestion.mp;
      Controller.mp; Adapt_mp.mp;
    ]

(* Create a runtime hosting a CTP instance.  Installs the crypto HIR
   primitives (crc32 is used by the drivers). *)
let create ?costs ?(with_receiver = false) ?(minimal = false) ?(extended = false) () :
    Runtime.t =
  Podopt_crypto.Prims.install ();
  let composite =
    if minimal then minimal_composite ()
    else if extended then extended_composite ()
    else if with_receiver then full_composite ()
    else sender_composite ()
  in
  let session = Session.create ?costs composite in
  Session.runtime session

(* --- Application-facing operations ------------------------------------ *)

let open_session rt = Runtime.raise_sync rt Events.open_ [ Podopt_hir.Value.Int 1 ]

let send rt ?(priority = 1) (payload : bytes) =
  Runtime.raise_sync rt Events.send_msg
    [ Podopt_hir.Value.Bytes payload; Podopt_hir.Value.Int priority ]

let sample rt = Runtime.raise_async rt Events.sample [ Podopt_hir.Value.Int 0 ]

(* Statistics accessors over CTP's shared state. *)
let stat rt name =
  match Runtime.get_global rt name with
  | Podopt_hir.Value.Int n -> n
  | _ -> 0

let sent_count rt = stat rt "sent_count"
let delivered rt = stat rt "delivered"
let acks rt = stat rt "acks"
let retrans rt = stat rt "retrans"
let frag_size rt = stat rt "frag_size"
