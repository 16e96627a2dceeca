(* Simulated network: deterministic loss, latency ordering, packet wire
   encoding. *)

open Podopt
open Podopt_net

let test_packet_roundtrip () =
  let p = Packet.make ~src:"a" ~dst:"b" ~seq:7 (Bytes.of_string "payload") in
  let p' = Packet.decode (Packet.encode p) in
  Alcotest.(check string) "src" p.Packet.src p'.Packet.src;
  Alcotest.(check string) "dst" p.Packet.dst p'.Packet.dst;
  Alcotest.(check int) "seq" p.Packet.seq p'.Packet.seq;
  Alcotest.(check string) "payload" "payload" (Bytes.to_string p'.Packet.payload)

let test_packet_decode_garbage () =
  Alcotest.check_raises "garbage" Packet.Decode_error (fun () ->
      ignore (Packet.decode (Bytes.of_string "not a packet")))

(* --- the in-place codec against its Value.marshal reference ---------- *)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Char.code (Bytes.get b i))))

(* what a decoder makes of a wire: the packet's fields, or a rejection *)
let outcome decode wire =
  match decode wire with
  | (p : Packet.t) -> Ok (p.src, p.dst, p.seq, Bytes.to_string p.payload)
  | exception Packet.Decode_error -> Error ()

let same_outcome wire = outcome Packet.decode wire = outcome Packet_ref.decode wire

let fixed = Packet.make ~src:"s7" ~dst:"broker" ~seq:(-3) (Bytes.of_string "\000hi\255")

let test_packet_wire_pinned () =
  (* the wire is an observable: corrupt= picks byte indices from it *)
  Alcotest.(check string) "wire bytes"
    (String.concat ""
       [
         "0400000000000000";  (* count: 4 fields *)
         "04"; "0200000000000000"; "7337";  (* src "s7" *)
         "04"; "0600000000000000"; "62726f6b6572";  (* dst "broker" *)
         "02"; "fdffffffffffffff";  (* seq -3 *)
         "05"; "0400000000000000"; "006869ff";  (* payload *)
       ])
    (hex (Packet.encode fixed));
  Alcotest.(check string) "reference wire" (hex (Packet_ref.encode fixed))
    (hex (Packet.encode fixed))

let test_packet_no_alias () =
  let wire = Packet.encode fixed in
  let p = Packet.decode wire in
  Bytes.fill wire 0 (Bytes.length wire) 'X';
  Alcotest.(check (triple string string string)) "decoded fields own their bytes"
    ("s7", "broker", "\000hi\255")
    (p.Packet.src, p.Packet.dst, Bytes.to_string p.Packet.payload)

let test_packet_every_byte_flip () =
  (* every single-byte corruption of one wire, every mask: the two
     decoders accept and reject exactly the same wires *)
  let wire = Packet.encode fixed in
  for i = 0 to Bytes.length wire - 1 do
    for mask = 1 to 255 do
      let b = Bytes.copy wire in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
      if not (same_outcome b) then
        Alcotest.failf "byte %d mask %#x: decoders disagree on %s" i mask (hex b)
    done
  done

let gen_packet =
  QCheck2.Gen.(
    map
      (fun (src, dst, seq, payload) ->
        Packet.make ~src ~dst ~seq (Bytes.of_string payload))
      (quad
         (string_size (int_range 0 12))
         (string_size (int_range 0 12))
         int
         (string_size (int_range 0 300))))

let print_packet (p : Packet.t) = hex (Packet.encode p)

let prop_encode_matches_ref =
  QCheck2.Test.make ~name:"packet encode writes the reference bytes" ~count:2000
    ~print:print_packet gen_packet (fun p ->
      Bytes.equal (Packet.encode p) (Packet_ref.encode p))

(* 1-3 flipped bytes, a truncation, or appended bytes *)
let gen_damage =
  QCheck2.Gen.(
    oneof
      [
        map (fun flips -> `Flip flips)
          (list_size (int_range 1 3) (pair nat (int_range 1 255)));
        map (fun k -> `Truncate k) nat;
        map (fun tail -> `Append tail) (string_size (int_range 1 16));
      ])

let damage wire = function
  | `Flip flips ->
    let b = Bytes.copy wire in
    List.iter
      (fun (i, mask) ->
        let i = i mod Bytes.length b in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask)))
      flips;
    b
  | `Truncate k -> Bytes.sub wire 0 (k mod Bytes.length wire)
  | `Append tail -> Bytes.cat wire (Bytes.of_string tail)

let prop_decode_matches_ref =
  QCheck2.Test.make ~name:"packet decode agrees with the reference on damaged wires"
    ~count:20_000
    ~print:(fun (p, d) -> hex (damage (Packet.encode p) d))
    QCheck2.Gen.(pair gen_packet gen_damage)
    (fun (p, d) -> same_outcome (damage (Packet.encode p) d))

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L in
  let b = Prng.create ~seed:7L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done;
  let c = Prng.create ~seed:8L in
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.int a 1000 <> Prng.int c 1000 then differs := true
  done;
  Alcotest.(check bool) "different seed differs" true !differs

let test_prng_unbiased () =
  (* regression: [Prng.int] reduced the raw 63-bit draw with a plain
     modulo.  For bound 3*2^60 that makes residues below 2^61 land 3/4
     of the time instead of the uniform 2/3; rejection sampling restores
     uniformity. *)
  let bound = 3 * (1 lsl 60) in
  let cut = 1 lsl 61 in
  let t = Prng.create ~seed:42L in
  let n = 20_000 in
  let below = ref 0 in
  for _ = 1 to n do
    if Prng.int t bound < cut then incr below
  done;
  let frac = float_of_int !below /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "uniform fraction below the cut (%.3f, want ~0.667)" frac)
    true
    (frac > 0.64 && frac < 0.69)

let mk_receiver () =
  let rt = Runtime.create ~program:(Parse.program "handler rx(w) { emit(\"rx\", w); }") () in
  Runtime.bind rt ~event:"Deliver" (Handler.hir' "rx");
  rt

let test_link_delivers_with_latency () =
  let rt = mk_receiver () in
  let link = Link.create ~latency:100 () in
  Link.send link rt ~deliver_event:(Link.raise_timed "Deliver")
    (Packet.make ~src:"a" ~dst:"b" ~seq:1 (Bytes.of_string "x"));
  Alcotest.(check int) "queued not delivered" 0 (List.length (Runtime.emits rt));
  Runtime.run ~until:50 rt;
  Alcotest.(check int) "still in flight at t=50" 0 (List.length (Runtime.emits rt));
  Runtime.run rt;
  Alcotest.(check int) "delivered" 1 (List.length (Runtime.emits rt));
  Alcotest.(check bool) "clock advanced past latency" true (Runtime.now rt >= 100)

let test_link_loss_rate () =
  let rt = mk_receiver () in
  let link = Link.create ~latency:1 ~loss_permille:300 ~seed:9L () in
  for i = 1 to 1000 do
    Link.send link rt ~deliver_event:(Link.raise_timed "Deliver")
      (Packet.make ~src:"a" ~dst:"b" ~seq:i (Bytes.of_string "x"))
  done;
  Runtime.run rt;
  let s = Link.stats link in
  Alcotest.(check int) "conservation" 1000 (s.Link.delivered + s.Link.dropped);
  Alcotest.(check bool)
    (Printf.sprintf "loss near 30%% (%d)" s.Link.dropped)
    true
    (s.Link.dropped > 230 && s.Link.dropped < 370);
  Alcotest.(check int) "emits match delivered" s.Link.delivered
    (List.length (Runtime.emits rt))

let test_link_jitter_varies_delay () =
  (* free dispatch: each delivery's clock is exactly its send time (0)
     plus the link delay *)
  let costs =
    {
      Costs.registry_lookup = 0;
      lock = 0;
      lock_merged = 0;
      marshal_base = 0;
      marshal_per_byte = 0;
      unmarshal_base = 0;
      unmarshal_per_byte = 0;
      indirect_call = 0;
      direct_call = 0;
      guard_check = 0;
      enqueue = 0;
      interp_step = 0;
      compiled_step = 0;
    }
  in
  let rt =
    Runtime.create ~costs ~program:(Parse.program "handler rx(w) { emit(\"rx\", w); }") ()
  in
  Runtime.bind rt ~event:"Deliver" (Handler.hir' "rx");
  let times = ref [] in
  Runtime.on_emit rt (fun _ _ -> times := Runtime.now rt :: !times);
  let latency = 10 and jitter = 50 in
  let link = Link.create ~latency ~jitter ~seed:3L () in
  for i = 1 to 20 do
    Link.send link rt ~deliver_event:(Link.raise_timed "Deliver")
      (Packet.make ~src:"a" ~dst:"b" ~seq:i (Bytes.of_string "x"))
  done;
  Runtime.run rt;
  Alcotest.(check int) "all delivered" 20 (List.length !times);
  List.iter
    (fun t ->
      if t < latency || t >= latency + jitter then
        Alcotest.failf "delivered at %d, outside [%d, %d)" t latency (latency + jitter))
    !times;
  let distinct = List.length (List.sort_uniq compare !times) in
  Alcotest.(check bool)
    (Printf.sprintf "deliveries spread over %d distinct times" distinct)
    true (distinct >= 2)

(* --- link state -------------------------------------------------------- *)

let pkt seq = Packet.make ~src:"a" ~dst:"b" ~seq (Bytes.of_string "x")

(* A link keeps no per-packet state: its size does not grow with the
   packets it has sent. *)
let test_link_unlogged_constant_size () =
  let rt = mk_receiver () in
  let link = Link.create () in
  Link.send link rt ~deliver_event:(Link.raise_timed "Deliver") (pkt 0);
  let after_one = Obj.reachable_words (Obj.repr link) in
  for i = 1 to 9_999 do
    Link.send link rt ~deliver_event:(Link.raise_timed "Deliver") (pkt i)
  done;
  Alcotest.(check int) "reachable words after 10,000 sends" after_one
    (Obj.reachable_words (Obj.repr link))

let suite =
  [
    Alcotest.test_case "packet roundtrip" `Quick test_packet_roundtrip;
    Alcotest.test_case "packet garbage" `Quick test_packet_decode_garbage;
    Alcotest.test_case "packet wire pinned" `Quick test_packet_wire_pinned;
    Alcotest.test_case "packet decode copies" `Quick test_packet_no_alias;
    Alcotest.test_case "packet every byte flip" `Quick test_packet_every_byte_flip;
    QCheck_alcotest.to_alcotest prop_encode_matches_ref;
    QCheck_alcotest.to_alcotest prop_decode_matches_ref;
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng unbiased" `Quick test_prng_unbiased;
    Alcotest.test_case "latency" `Quick test_link_delivers_with_latency;
    Alcotest.test_case "loss rate" `Quick test_link_loss_rate;
    Alcotest.test_case "jitter" `Quick test_link_jitter_varies_delay;
    Alcotest.test_case "unlogged link constant size" `Quick
      test_link_unlogged_constant_size;
  ]
