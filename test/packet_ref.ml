(* Reference packet codec: the wire format spelled through the event
   system's generic argument marshaling, [Value.marshal] of
   [Str src; Str dst; Int seq; Bytes payload], and its [Value.unmarshal]
   read-back.  Kept as the differential oracle for the in-place
   [Podopt_net.Packet] codec, which must write the same bytes and accept
   exactly the wires this decoder accepts. *)

module Value = Podopt_hir.Value
module Packet = Podopt_net.Packet

let encode (p : Packet.t) : bytes =
  Bytes.of_string
    (Value.marshal
       [ Value.Str p.src; Value.Str p.dst; Value.Int p.seq; Value.Bytes p.payload ])

(* a corrupted length field makes unmarshal slice out of bounds
   (Invalid_argument) rather than fail its own format check — any parse
   failure on wire bytes is the same event: a bad packet *)
let decode (b : bytes) : Packet.t =
  match Value.unmarshal (Bytes.to_string b) with
  | [ Value.Str src; Value.Str dst; Value.Int seq; Value.Bytes payload ] ->
    { Packet.src; dst; seq; payload }
  | _
  | (exception Value.Unmarshal_error _)
  | (exception Invalid_argument _)
  | (exception Failure _) ->
    raise Packet.Decode_error
