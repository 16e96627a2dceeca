(* Crypto substrate against published test vectors. *)

open Podopt_crypto

let test_des_classic_vector () =
  (* the worked example from the DES standard literature *)
  let key = 0x133457799BBCDFF1L in
  let pt = 0x0123456789ABCDEFL in
  let ct = Des.encrypt_block_raw ~key pt in
  Alcotest.(check string) "ciphertext" "85e813540f0ab405" (Printf.sprintf "%016Lx" ct);
  Alcotest.(check string) "decrypt back" (Printf.sprintf "%016Lx" pt)
    (Printf.sprintf "%016Lx" (Des.decrypt_block_raw ~key ct))

let test_des_zero_vector () =
  let key = 0x0000000000000000L in
  let ct = Des.encrypt_block_raw ~key 0L in
  Alcotest.(check string) "all-zero" "8ca64de9c1b123a7" (Printf.sprintf "%016Lx" ct)

let test_des_weak_key_ones () =
  let key = 0xFFFFFFFFFFFFFFFFL in
  let ct = Des.encrypt_block_raw ~key 0xFFFFFFFFFFFFFFFFL in
  Alcotest.(check string) "all-ones" "7359b2163e4edc58" (Printf.sprintf "%016Lx" ct)

(* Known answers: the first rows of NIST SP 800-17's variable-plaintext
   and variable-key tables, and a key that sends 8787878787878787 to 0. *)
let test_des_known_answers () =
  List.iter
    (fun (key, pt, ct) ->
      let hex = Printf.sprintf "%016Lx" in
      Alcotest.(check string) (hex key ^ " encrypt") (hex ct) (hex (Des.encrypt_block_raw ~key pt));
      Alcotest.(check string) (hex key ^ " decrypt") (hex pt) (hex (Des.decrypt_block_raw ~key ct)))
    [
      (0x0101010101010101L, 0x8000000000000000L, 0x95f8a5e5dd31d900L);
      (0x8001010101010101L, 0L, 0x95a8d72813daa94dL);
      (0x0e329232ea6d0d73L, 0x8787878787878787L, 0L);
    ]

(* --- Des against the reference implementation (test/des_ref.ml) -------- *)

let gen_key = QCheck2.Gen.bytes_size (QCheck2.Gen.return 8)

let prop_des_matches_reference_modes =
  QCheck2.Test.make ~name:"DES ECB/CBC match the reference" ~count:200
    ~print:(fun (k, m, iv) ->
      Printf.sprintf "key=%S msg=%d bytes iv=%Lx" (Bytes.to_string k) (Bytes.length m) iv)
    QCheck2.Gen.(triple gen_key (bytes_size (int_range 0 600)) int64)
    (fun (key, msg, iv) ->
      let ks = Des.key_of_bytes key and rs = Des_ref.key_of_bytes key in
      let ecb = Des.encrypt_ecb ks msg and cbc = Des.encrypt_cbc ks ~iv msg in
      Bytes.equal ecb (Des_ref.encrypt_ecb rs msg)
      && Bytes.equal cbc (Des_ref.encrypt_cbc rs ~iv msg)
      && Bytes.equal (Des.decrypt_ecb ks ecb) msg
      && Bytes.equal (Des.decrypt_cbc ks ~iv cbc) msg)

let prop_des_matches_reference_blocks =
  QCheck2.Test.make ~name:"DES raw blocks match the reference" ~count:500
    ~print:(fun (k, b) -> Printf.sprintf "key=%Lx block=%Lx" k b)
    QCheck2.Gen.(pair int64 int64)
    (fun (key, block) ->
      Des.encrypt_block_raw ~key block = Des_ref.encrypt_block_raw ~key block
      && Des.decrypt_block_raw ~key block = Des_ref.decrypt_block_raw ~key block)

(* Random block-aligned garbage almost always fails the padding check;
   the same garbage ending in an encrypted padding block always passes
   it.  Either way both implementations must agree. *)
let prop_des_matches_reference_padding =
  QCheck2.Test.make ~name:"DES Bad_padding matches the reference" ~count:200
    ~print:(fun (k, g) ->
      Printf.sprintf "key=%S garbage=%S" (Bytes.to_string k) (Bytes.to_string g))
    QCheck2.Gen.(pair gen_key (int_range 1 75 >>= fun n -> bytes_size (return (8 * n))))
    (fun (key, garbage) ->
      let ks = Des.key_of_bytes key and rs = Des_ref.key_of_bytes key in
      let valid_tail = Bytes.copy garbage in
      Bytes.blit (Des_ref.encrypt_ecb rs Bytes.empty) 0 valid_tail (Bytes.length garbage - 8) 8;
      let outcome decrypt =
        match decrypt () with
        | plain -> Some plain
        | exception (Des.Bad_padding | Des_ref.Bad_padding) -> None
      in
      List.for_all
        (fun ct ->
          outcome (fun () -> Des.decrypt_ecb ks ct) = outcome (fun () -> Des_ref.decrypt_ecb rs ct))
        [ garbage; valid_tail ])

(* Minor-heap words allocated by [f ()]. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let test_des_no_allocation_per_block () =
  let key = Bytes.of_string "8bytekey" in
  let ks = Des.key_of_bytes key in
  List.iter
    (fun n ->
      let msg = Bytes.make n 'm' in
      let out = Des.encrypt_ecb ks msg in
      (* header plus data words, the trailing padding byte included; a
         2 KB output goes straight to the major heap, and the bound still
         leaves less than one allocation per block *)
      let out_words = 2 + (Bytes.length out / 8) in
      let w = minor_words (fun () -> Des.encrypt_ecb ks msg) in
      Alcotest.(check bool)
        (Printf.sprintf "%d B encrypt: %.0f words <= %d + 8" n w out_words)
        true
        (w <= float_of_int (out_words + 8)))
    [ 8; 2048 ];
  let w = minor_words (fun () -> Des.key_of_bytes key) in
  Alcotest.(check bool) (Printf.sprintf "key schedule: %.0f words <= 130" w) true (w <= 130.)

let test_des_ecb_roundtrip () =
  let ks = Des.key_of_bytes (Bytes.of_string "8bytekey") in
  List.iter
    (fun msg ->
      let pt = Bytes.of_string msg in
      let ct = Des.encrypt_ecb ks pt in
      Alcotest.(check string) "roundtrip" msg (Bytes.to_string (Des.decrypt_ecb ks ct));
      Alcotest.(check bool) "ciphertext differs" true (not (Bytes.equal ct pt)))
    [ ""; "a"; "exactly8"; "a longer message spanning several DES blocks!" ]

let test_des_cbc_roundtrip_and_chaining () =
  let ks = Des.key_of_bytes (Bytes.of_string "8bytekey") in
  let pt = Bytes.of_string (String.concat "" (List.init 8 (fun _ -> "repeated"))) in
  let cbc = Des.encrypt_cbc ks ~iv:0x0123456789ABCDEFL pt in
  let ecb = Des.encrypt_ecb ks pt in
  Alcotest.(check string) "cbc roundtrip" (Bytes.to_string pt)
    (Bytes.to_string (Des.decrypt_cbc ks ~iv:0x0123456789ABCDEFL cbc));
  (* identical plaintext blocks produce identical ECB blocks but distinct
     CBC blocks *)
  let block b i = Bytes.sub_string b (i * 8) 8 in
  Alcotest.(check string) "ecb leaks" (block ecb 0) (block ecb 1);
  Alcotest.(check bool) "cbc hides" true (block cbc 0 <> block cbc 1)

let test_des_bad_padding_rejected () =
  let ks = Des.key_of_bytes (Bytes.of_string "8bytekey") in
  Alcotest.check_raises "garbage" Des.Bad_padding (fun () ->
      ignore (Des.decrypt_ecb ks (Bytes.make 8 '\xAA')))

let test_md5_rfc1321_vectors () =
  List.iter
    (fun (input, expected) ->
      Alcotest.(check string) input expected (Md5.hex_of_string input))
    [
      ("", "d41d8cd98f00b204e9800998ecf8427e");
      ("a", "0cc175b9c0f1b6a831c399e269772661");
      ("abc", "900150983cd24fb0d6963f7d28e17f72");
      ("message digest", "f96b697d7cb7938d525a2f31aaf161d0");
      ("abcdefghijklmnopqrstuvwxyz", "c3fcd3d76192e4007dfb496cca67e13b");
      ( "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f" );
      ( "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        "57edf4a22be3c955ac49da2e2107b67a" );
    ]

let test_md5_block_boundaries () =
  (* [String.make n 'x'] at lengths around the 56-byte padding boundary
     and the 64-byte block, against md5sum *)
  List.iter
    (fun (n, expected) ->
      Alcotest.(check string) (Printf.sprintf "len %d" n) expected
        (Md5.hex_of_string (String.make n 'x')))
    [
      (54, "61ea0974c662328da964d977a8253873");
      (55, "04364420e25c512fd958a70738aa8f72");
      (56, "668a72d5ba17f08e62dabcafad6db14b");
      (57, "693037871c4a9d3d8685018905cb530a");
      (63, "7dc2ca208106a2f703567bdff99d8981");
      (64, "c1bb4f81d892b2d57947682aeb252456");
      (65, "1bc932052302d074bdec39795fe00cf6");
      (127, "a0b28c1da68705c2ff883fe279b72753");
      (128, "d69cb61a6ee87200676eb0d4b90edbcb");
    ]

let test_hmac_md5_rfc2202 () =
  (* RFC 2202 test case 2 *)
  let mac = Hmac_md5.compute ~key:(Bytes.of_string "Jefe") (Bytes.of_string "what do ya want for nothing?") in
  Alcotest.(check string) "rfc2202 tc2" "750c783e6ab0b503eaa86e310a5db738" (Md5.to_hex mac);
  (* RFC 2202 test case 1 *)
  let key = Bytes.make 16 '\x0b' in
  let mac = Hmac_md5.compute ~key (Bytes.of_string "Hi There") in
  Alcotest.(check string) "rfc2202 tc1" "9294727a3638bb1c13f48ef8158bfc9d" (Md5.to_hex mac);
  (* RFC 2202 test cases 6 and 7: the only ones whose 80-byte key is
     longer than a block, so it is hashed first *)
  let key = Bytes.make 80 '\xaa' in
  List.iter
    (fun (name, data, expected) ->
      Alcotest.(check string) name expected
        (Md5.to_hex (Hmac_md5.compute ~key (Bytes.of_string data))))
    [
      ("rfc2202 tc6", "Test Using Larger Than Block-Size Key - Hash Key First",
       "6b1ab7fe4bd7bf8f0b62e6ce61b9d0cd");
      ("rfc2202 tc7",
       "Test Using Larger Than Block-Size Key and Larger Than One Block-Size Data",
       "6f630fad67cda0ee1fb1f562db3aa53e");
    ]

let test_hmac_verify () =
  let key = Bytes.of_string "secret" in
  let msg = Bytes.of_string "payload" in
  let mac = Hmac_md5.compute ~key msg in
  Alcotest.(check bool) "verifies" true (Hmac_md5.verify ~key ~mac msg);
  Alcotest.(check bool) "tamper detected" false
    (Hmac_md5.verify ~key ~mac (Bytes.of_string "payloax"))

let test_xor_involution () =
  let key = Bytes.of_string "k3y" in
  let data = Bytes.of_string "the quick brown fox" in
  let enc = Xor_cipher.encrypt ~key data in
  Alcotest.(check bool) "changed" true (not (Bytes.equal enc data));
  Alcotest.(check string) "involution" (Bytes.to_string data)
    (Bytes.to_string (Xor_cipher.decrypt ~key enc))

let test_crc32_vectors () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.of_string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.of_string "")

let test_prims_available () =
  Prims.install ();
  Prims.install ();
  (* idempotent *)
  let open Podopt_hir in
  let r =
    Prim.apply "crc32" [ Value.Bytes (Bytes.of_string "123456789") ]
  in
  Alcotest.(check bool) "crc32 prim" true (r = Value.Int 0xCBF43926);
  match
    Prim.apply "des_encrypt"
      [ Value.Bytes (Bytes.of_string "8bytekey"); Value.Bytes (Bytes.of_string "hello") ]
  with
  | Value.Bytes ct ->
    (match
       Prim.apply "des_decrypt"
         [ Value.Bytes (Bytes.of_string "8bytekey"); Value.Bytes ct ]
     with
     | Value.Bytes pt -> Alcotest.(check string) "prim roundtrip" "hello" (Bytes.to_string pt)
     | _ -> Alcotest.fail "des_decrypt type")
  | _ -> Alcotest.fail "des_encrypt type"

let suite =
  [
    Alcotest.test_case "DES classic vector" `Quick test_des_classic_vector;
    Alcotest.test_case "DES zero vector" `Quick test_des_zero_vector;
    Alcotest.test_case "DES ones vector" `Quick test_des_weak_key_ones;
    Alcotest.test_case "DES ECB roundtrip" `Quick test_des_ecb_roundtrip;
    Alcotest.test_case "DES CBC chaining" `Quick test_des_cbc_roundtrip_and_chaining;
    Alcotest.test_case "DES bad padding" `Quick test_des_bad_padding_rejected;
    Alcotest.test_case "MD5 RFC1321 vectors" `Quick test_md5_rfc1321_vectors;
    Alcotest.test_case "MD5 block boundaries" `Quick test_md5_block_boundaries;
    Alcotest.test_case "HMAC-MD5 RFC2202" `Quick test_hmac_md5_rfc2202;
    Alcotest.test_case "HMAC verify" `Quick test_hmac_verify;
    Alcotest.test_case "XOR involution" `Quick test_xor_involution;
    Alcotest.test_case "CRC32 vectors" `Quick test_crc32_vectors;
    Alcotest.test_case "HIR prims" `Quick test_prims_available;
    Alcotest.test_case "DES known-answer vectors" `Quick test_des_known_answers;
    Alcotest.test_case "DES no allocation per block" `Quick test_des_no_allocation_per_block;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_des_matches_reference_modes;
        prop_des_matches_reference_blocks;
        prop_des_matches_reference_padding;
      ]
