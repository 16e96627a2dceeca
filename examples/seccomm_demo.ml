(* Secure communication over a lossy simulated network (Sec. 4.2):

     dune exec examples/seccomm_demo.exe

   Two SecComm endpoints (DES + XOR + coordinator, optionally KeyedMD5)
   exchange messages over a link with latency and loss; the sender's
   stack is then optimized and the exchange repeated. *)

open Podopt
module Sec = Podopt_seccomm.Seccomm
module Messenger = Podopt_apps.Secure_messenger
open Podopt_net

let exchange rt link ~count =
  (* receiver state lives in the same runtime: wire bytes are carried by
     the simulated link and popped on delivery *)
  let delivered = ref 0 in
  Runtime.on_emit rt (fun tag args ->
      match tag, args with
      | "udp_tx", [ Value.Bytes wire ] ->
        Link.send link rt ~deliver_event:(Link.raise_timed "WireIn")
          (Packet.make ~src:"alice" ~dst:"bob" ~seq:!delivered wire)
      | "deliver", [ Value.Bytes _ ] -> incr delivered
      | _ -> ());
  (* native glue: a delivered packet is popped up the receiving stack *)
  Runtime.bind rt ~event:"WireIn"
    (Handler.native "wire_in" (fun host args ->
         match args with
         | [ Value.Bytes raw ] ->
           let packet = Packet.decode raw in
           host.Interp.raise_event "SecPop" Ast.Sync
             [ Value.Bytes packet.Packet.payload ]
         | _ -> ()));
  for i = 1 to count do
    Sec.push rt (Messenger.message ~size:(128 + (i * 61 mod 512)) i)
  done;
  Runtime.run rt;
  rt.Runtime.emit_hook <- None;
  !delivered

let () =
  let config = { Sec.des = true; xor = true; mac = true; replay = false; compress = false } in
  let rt = Sec.create ~config () in
  rt.Runtime.emit_log_enabled <- false;
  let link = Link.create ~latency:400 ~jitter:100 ~loss_permille:50 ~seed:11L () in
  let n = exchange rt link ~count:200 in
  let s = Link.stats link in
  Fmt.pr "sent %d packets: %d delivered, %d lost in the network@." s.Link.sent
    s.Link.delivered s.Link.dropped;
  Fmt.pr "messages decrypted and delivered: %d@." n;
  Fmt.pr "DES operations: %d, MAC failures: %d@." (Sec.stat rt "des_ops")
    (Sec.stat rt "mac_failures");

  (* optimize the stack and push the same traffic again *)
  Runtime.reset_measurements rt;
  let before = Runtime.total_handler_time rt in
  ignore before;
  let t_orig =
    let rt0 = Sec.create ~config () in
    rt0.Runtime.emit_log_enabled <- false;
    Runtime.reset_measurements rt0;
    for i = 1 to 100 do
      Sec.push rt0 (Messenger.message ~size:512 i)
    done;
    Runtime.total_handler_time rt0
  in
  let rt1 = Sec.create ~config () in
  rt1.Runtime.emit_log_enabled <- false;
  ignore
    (Driver.profile_and_optimize ~threshold:10 rt1
       ~workload:(fun () ->
         for i = 1 to 40 do
           Sec.push rt1 (Messenger.message ~size:512 i)
         done));
  Runtime.reset_measurements rt1;
  for i = 1 to 100 do
    Sec.push rt1 (Messenger.message ~size:512 i)
  done;
  let t_opt = Runtime.total_handler_time rt1 in
  Fmt.pr "@.push cost for 100 x 512B messages: %d -> %d units (%.1f%% saved)@." t_orig
    t_opt
    (100.0 *. float_of_int (t_orig - t_opt) /. float_of_int t_orig);
  Fmt.pr "(crypto dominates, so the event-machinery savings are modest — Fig. 12)@."
