(* Network packets: what crosses a link. *)

type t = {
  src : string;
  dst : string;
  seq : int;
  payload : bytes;
}

let make ~src ~dst ~seq payload = { src; dst; seq; payload }
let size (p : t) = Bytes.length p.payload

(* Flat wire encoding, so links carry bytes like a real UDP socket would.
   The layout is the event system's argument marshaling
   (Podopt_hir.Value.marshal) of [Str src; Str dst; Int seq; Bytes
   payload], written and parsed in place: an 8-byte little-endian count
   (4), then per field a tag byte and either an 8-byte length plus the
   bytes (str 4, bytes 5) or the 8-byte value (int 2).  [corrupt=]
   faults flip wire bytes by index, so these bytes are an observable. *)

let tag_int = '\002'
let tag_str = '\004'
let tag_bytes = '\005'

(* Fixed wire bytes: the count plus four tags with their 8-byte words. *)
let overhead = 8 + (4 * 9)

let put_word b pos tag n =
  Bytes.set b pos tag;
  Bytes.set_int64_le b (pos + 1) (Int64.of_int n);
  pos + 9

let encode (p : t) : bytes =
  let ls = String.length p.src
  and ld = String.length p.dst
  and lp = Bytes.length p.payload in
  let b = Bytes.create (overhead + ls + ld + lp) in
  Bytes.set_int64_le b 0 4L;
  let pos = put_word b 8 tag_str ls in
  Bytes.blit_string p.src 0 b pos ls;
  let pos = put_word b (pos + ls) tag_str ld in
  Bytes.blit_string p.dst 0 b pos ld;
  let pos = put_word b (pos + ld) tag_int p.seq in
  let pos = put_word b pos tag_bytes lp in
  Bytes.blit p.payload 0 b pos lp;
  b

exception Decode_error

(* The checks mirror Value.unmarshal's: a word is read through
   Int64.to_int, a length must be non-negative and fit in what is left
   of the wire, and no byte may trail the payload. *)
let word b pos =
  if pos + 8 > Bytes.length b then raise Decode_error;
  Int64.to_int (Bytes.get_int64_le b pos)

let expect b pos tag =
  if pos >= Bytes.length b || Bytes.get b pos <> tag then raise Decode_error

(* The length word of a field tagged [tag] at [pos]. *)
let field b pos tag =
  expect b pos tag;
  let n = word b (pos + 1) in
  if n < 0 || n > Bytes.length b - (pos + 9) then raise Decode_error;
  n

let decode (b : bytes) : t =
  if word b 0 <> 4 then raise Decode_error;
  let ls = field b 8 tag_str in
  let src = Bytes.sub_string b 17 ls in
  let pos = 17 + ls in
  let ld = field b pos tag_str in
  let dst = Bytes.sub_string b (pos + 9) ld in
  let pos = pos + 9 + ld in
  expect b pos tag_int;
  let seq = word b (pos + 1) in
  let pos = pos + 9 in
  let lp = field b pos tag_bytes in
  if pos + 9 + lp <> Bytes.length b then raise Decode_error;
  { src; dst; seq; payload = Bytes.sub b (pos + 9) lp }
