(** Network packets and their flat wire encoding (links carry bytes,
    like a real UDP socket). *)

type t = {
  src : string;
  dst : string;
  seq : int;
  payload : bytes;
}

val make : src:string -> dst:string -> seq:int -> bytes -> t
val size : t -> int

(** The bytes of [Value.marshal [Str src; Str dst; Int seq; Bytes
    payload]], written in place. *)
val encode : t -> bytes

exception Decode_error

(** The packet {!encode} wrote, with src, dst and payload copied out of
    the wire; [Decode_error] for any input [Value.unmarshal] would not
    read back as that four-field vector. *)
val decode : bytes -> t
