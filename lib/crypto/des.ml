(* DES block cipher (FIPS 46-3), table-driven on native ints.

   SecComm's DESPrivacy micro-protocol uses this for message bodies; it
   dominates the paper's SecComm experiment (Fig. 12), which is why push
   and pop improve only 4-13% there.

   Each 32-bit half-block lives in a native int.  IP, FP, PC-1 and PC-2
   go through nibble-indexed tables that module initialisation builds
   eagerly (so domains can share them) from the standard's tables; S and
   P fold into eight 64-entry SP tables.  The key schedule is recomputed
   on every [key_of_bytes], as the 2002 SecComm did per message.  A call
   allocates its output buffer and nothing per block.  Reproduction
   artifact only: DES is long broken. *)

(* --- Standard tables --------------------------------------------------- *)

(* Initial permutation *)
let ip = [|
  58;50;42;34;26;18;10;2; 60;52;44;36;28;20;12;4;
  62;54;46;38;30;22;14;6; 64;56;48;40;32;24;16;8;
  57;49;41;33;25;17;9;1;  59;51;43;35;27;19;11;3;
  61;53;45;37;29;21;13;5; 63;55;47;39;31;23;15;7;
|]

(* Final permutation (inverse of IP) *)
let fp = [|
  40;8;48;16;56;24;64;32; 39;7;47;15;55;23;63;31;
  38;6;46;14;54;22;62;30; 37;5;45;13;53;21;61;29;
  36;4;44;12;52;20;60;28; 35;3;43;11;51;19;59;27;
  34;2;42;10;50;18;58;26; 33;1;41;9;49;17;57;25;
|]

(* P permutation after the S-boxes *)
let p_table = [|
  16;7;20;21;29;12;28;17; 1;15;23;26;5;18;31;10;
  2;8;24;14;32;27;3;9;    19;13;30;6;22;11;4;25;
|]

(* Key schedule: PC-1 (64 -> 56 bits, dropping parity) *)
let pc1 = [|
  57;49;41;33;25;17;9; 1;58;50;42;34;26;18;
  10;2;59;51;43;35;27; 19;11;3;60;52;44;36;
  63;55;47;39;31;23;15; 7;62;54;46;38;30;22;
  14;6;61;53;45;37;29; 21;13;5;28;20;12;4;
|]

(* Key schedule: PC-2 (56 -> 48 bits) *)
let pc2 = [|
  14;17;11;24;1;5; 3;28;15;6;21;10;
  23;19;12;4;26;8; 16;7;27;20;13;2;
  41;52;31;37;47;55; 30;40;51;45;33;48;
  44;49;39;56;34;53; 46;42;50;36;29;32;
|]

let shifts = [| 1;1;2;2;2;2;2;2;1;2;2;2;2;2;2;1 |]

(* S-boxes, each 4 rows of 16 (two rows a line) *)
let sboxes = [|
  [| 14;4;13;1;2;15;11;8;3;10;6;12;5;9;0;7;  0;15;7;4;14;2;13;1;10;6;12;11;9;5;3;8;
     4;1;14;8;13;6;2;11;15;12;9;7;3;10;5;0;  15;12;8;2;4;9;1;7;5;11;3;14;10;0;6;13 |];
  [| 15;1;8;14;6;11;3;4;9;7;2;13;12;0;5;10;  3;13;4;7;15;2;8;14;12;0;1;10;6;9;11;5;
     0;14;7;11;10;4;13;1;5;8;12;6;9;3;2;15;  13;8;10;1;3;15;4;2;11;6;7;12;0;5;14;9 |];
  [| 10;0;9;14;6;3;15;5;1;13;12;7;11;4;2;8;  13;7;0;9;3;4;6;10;2;8;5;14;12;11;15;1;
     13;6;4;9;8;15;3;0;11;1;2;12;5;10;14;7;  1;10;13;0;6;9;8;7;4;15;14;3;11;5;2;12 |];
  [| 7;13;14;3;0;6;9;10;1;2;8;5;11;12;4;15;  13;8;11;5;6;15;0;3;4;7;2;12;1;10;14;9;
     10;6;9;0;12;11;7;13;15;1;3;14;5;2;8;4;  3;15;0;6;10;1;13;8;9;4;5;11;12;7;2;14 |];
  [| 2;12;4;1;7;10;11;6;8;5;3;15;13;0;14;9;  14;11;2;12;4;7;13;1;5;0;15;10;3;9;8;6;
     4;2;1;11;10;13;7;8;15;9;12;5;6;3;0;14;  11;8;12;7;1;14;2;13;6;15;0;9;10;4;5;3 |];
  [| 12;1;10;15;9;2;6;8;0;13;3;4;14;7;5;11;  10;15;4;2;7;12;9;5;6;1;13;14;0;11;3;8;
     9;14;15;5;2;8;12;3;7;0;4;10;1;13;11;6;  4;3;2;12;9;5;15;10;11;14;1;7;6;0;8;13 |];
  [| 4;11;2;14;15;0;8;13;3;12;9;7;5;10;6;1;  13;0;11;7;4;9;1;10;14;3;5;12;2;15;8;6;
     1;4;11;13;12;3;7;14;10;15;6;8;0;5;9;2;  6;11;13;8;1;4;10;7;9;5;0;15;14;2;3;12 |];
  [| 13;2;8;4;6;15;11;1;10;9;3;14;5;0;12;7;  1;15;13;8;10;3;7;4;12;5;6;11;0;14;9;2;
     7;11;4;1;9;12;14;2;0;6;10;13;15;3;5;8;  2;1;14;7;4;10;8;13;15;12;9;0;3;5;6;11 |];
|]

(* --- Tables built at module initialisation ----------------------------- *)

(* Bits count from 1 at the MSB, as in the standard: output bit [k + 1]
   of [t] is input bit [t.(k)], and [dest k] is its word and position.
   One 256-entry table per output word; entry [16p + v] holds the bits
   set when input nibble [p] (bits 4p+1..4p+4 of 64) is [v]. *)
let nibble_tables (t : int array) ~(dest : int -> int * int) =
  let words = [| Array.make 256 0; Array.make 256 0 |] in
  Array.iteri
    (fun k s ->
      let w, pos = dest k in
      for v = 0 to 15 do
        let i = (16 * ((s - 1) / 4)) + v in
        if (v lsr (3 - ((s - 1) mod 4))) land 1 = 1 then
          words.(w).(i) <- words.(w).(i) lor (1 lsl pos)
      done)
    t;
  (words.(0), words.(1))

(* One output word of a nibble-table permutation of the 64 bits [hi:lo]. *)
let perm (t : int array) hi lo =
  let acc = ref 0 in
  for p = 0 to 7 do
    let sh = 28 - (4 * p) in
    acc := !acc lor t.((16 * p) + ((hi lsr sh) land 15))
           lor t.((16 * (p + 8)) + ((lo lsr sh) land 15))
  done;
  !acc

let halves k = if k < 32 then (0, 31 - k) else (1, 63 - k)
let ip_l, ip_r = nibble_tables ip ~dest:halves
let fp_hi, fp_lo = nibble_tables fp ~dest:halves
let pc1_c, pc1_d = nibble_tables pc1 ~dest:(fun k -> if k < 28 then (0, 27 - k) else (1, 55 - k))

(* PC-2 reads C and D shifted up a nibble (D's bit 29 is bit 33 of 64);
   its 6-bit output group [i] goes to word [i land 1] under E window [i]. *)
let pc2_even, pc2_odd =
  nibble_tables (Array.map (fun s -> if s <= 28 then s else s + 4) pc2)
    ~dest:(fun k -> ((k / 6) land 1, 33 - (4 * (k / 6)) - (k mod 6)))

(* [sp.(64i + six)]: P of S-box [i]'s output for the 6-bit group [six]
   (MSB first), placed at nibble [i]. *)
let sp =
  let p, _ = nibble_tables p_table ~dest:(fun k -> (0, 31 - k)) in
  Array.init 512 (fun n ->
      let i = n / 64 and six = n mod 64 in
      let row = ((six lsr 4) land 2) lor (six land 1) and col = (six lsr 1) land 15 in
      perm p (sboxes.(i).((16 * row) + col) lsl (28 - (4 * i))) 0)

(* --- Key schedule ------------------------------------------------------- *)

(* Round [r]'s key: [ks.(2r)] under E windows 0, 2, 4, 6; [ks.(2r + 1)] under 1, 3, 5, 7. *)
type key = int array

let schedule hi lo : key =
  let c = ref (perm pc1_c hi lo) and d = ref (perm pc1_d hi lo) in
  let ks = Array.make 32 0 in
  for round = 0 to 15 do
    let s = shifts.(round) in
    c := ((!c lsl s) lor (!c lsr (28 - s))) land 0xFFFFFFF;
    d := ((!d lsl s) lor (!d lsr (28 - s))) land 0xFFFFFFF;
    ks.(2 * round) <- perm pc2_even (!c lsl 4) (!d lsl 4);
    ks.((2 * round) + 1) <- perm pc2_odd (!c lsl 4) (!d lsl 4)
  done;
  ks

(* --- Block operation ---------------------------------------------------- *)

let get32 b off = (Bytes.get_uint16_be b off lsl 16) lor Bytes.get_uint16_be b (off + 2)

let set32 b off v =
  Bytes.set_uint16_be b off (v lsr 16);
  Bytes.set_uint16_be b (off + 2) (v land 0xFFFF)

(* The block at [src.[soff]] into [dst.[doff]] ([src == dst] is fine).
   [x] is [r] with its end bits wrapped round to 34, so E window [i] is
   its bits 28 - 4i .. 33 - 4i.  The eight lookups are written out, as a
   helper closure would allocate. *)
let crypt (ks : key) ~decrypt src soff dst doff =
  let hi = get32 src soff and lo = get32 src (soff + 4) in
  let l = ref (perm ip_l hi lo) and r = ref (perm ip_r hi lo) in
  for round = 0 to 15 do
    let k = 2 * if decrypt then 15 - round else round in
    let x = ((!r land 1) lsl 33) lor (!r lsl 1) lor (!r lsr 31) in
    let e = x lxor ks.(k) and o = x lxor ks.(k + 1) in
    let f =
      sp.((e lsr 28) land 63)
      lor sp.(64 + ((o lsr 24) land 63))
      lor sp.(128 + ((e lsr 20) land 63))
      lor sp.(192 + ((o lsr 16) land 63))
      lor sp.(256 + ((e lsr 12) land 63))
      lor sp.(320 + ((o lsr 8) land 63))
      lor sp.(384 + ((e lsr 4) land 63))
      lor sp.(448 + (o land 63))
    in
    let next = !l lxor f in
    l := !r;
    r := next
  done;
  (* final swap: R16 L16 *)
  set32 dst doff (perm fp_hi !r !l);
  set32 dst (doff + 4) (perm fp_lo !r !l)

(* --- Byte-level API ----------------------------------------------------- *)

let key_of_bytes (b : bytes) : key =
  if Bytes.length b <> 8 then invalid_arg "Des.key_of_bytes: key must be 8 bytes";
  schedule (get32 b 0) (get32 b 4)

let key_of_int64 (k : int64) : key =
  schedule (Int64.to_int (Int64.shift_right_logical k 32)) (Int64.to_int k land 0xFFFFFFFF)

(* PKCS#7 padding to a multiple of 8. *)
let pad (data : bytes) : bytes =
  let n = Bytes.length data in
  let padlen = 8 - (n mod 8) in
  let out = Bytes.create (n + padlen) in
  Bytes.blit data 0 out 0 n;
  Bytes.fill out n padlen (Char.chr padlen);
  out

exception Bad_padding

let unpad (data : bytes) : bytes =
  let n = Bytes.length data in
  if n = 0 || n mod 8 <> 0 then raise Bad_padding;
  let padlen = Char.code (Bytes.get data (n - 1)) in
  if padlen < 1 || padlen > 8 || padlen > n then raise Bad_padding;
  for i = n - padlen to n - 1 do
    if Char.code (Bytes.get data i) <> padlen then raise Bad_padding
  done;
  Bytes.sub data 0 (n - padlen)

(* ECB: each block of [src] into the same place in [dst]. *)
let ecb ks ~decrypt src dst =
  for i = 0 to (Bytes.length src / 8) - 1 do
    crypt ks ~decrypt src (i * 8) dst (i * 8)
  done;
  dst

let encrypt_ecb (ks : key) (plaintext : bytes) : bytes =
  let out = pad plaintext in
  ecb ks ~decrypt:false out out

let decrypt_ecb (ks : key) (ciphertext : bytes) : bytes =
  if Bytes.length ciphertext mod 8 <> 0 then invalid_arg "Des.decrypt_ecb: bad length";
  unpad (ecb ks ~decrypt:true ciphertext (Bytes.create (Bytes.length ciphertext)))

(* CBC with an explicit IV.  [xor8 b off c coff] XORs [c]'s block at
   [coff] into [b]'s at [off]; [xor_iv] XORs the IV into block 0. *)
let xor8 b off c coff =
  set32 b off (get32 b off lxor get32 c coff);
  set32 b (off + 4) (get32 b (off + 4) lxor get32 c (coff + 4))

let xor_iv b iv = Bytes.set_int64_be b 0 (Int64.logxor (Bytes.get_int64_be b 0) iv)

let encrypt_cbc (ks : key) ~(iv : int64) (plaintext : bytes) : bytes =
  let out = pad plaintext in
  for i = 0 to (Bytes.length out / 8) - 1 do
    if i = 0 then xor_iv out iv else xor8 out (i * 8) out ((i - 1) * 8);
    crypt ks ~decrypt:false out (i * 8) out (i * 8)
  done;
  out

let decrypt_cbc (ks : key) ~(iv : int64) (ciphertext : bytes) : bytes =
  if Bytes.length ciphertext mod 8 <> 0 then invalid_arg "Des.decrypt_cbc: bad length";
  let out = Bytes.create (Bytes.length ciphertext) in
  for i = 0 to (Bytes.length out / 8) - 1 do
    crypt ks ~decrypt:true ciphertext (i * 8) out (i * 8);
    if i = 0 then xor_iv out iv else xor8 out (i * 8) ciphertext ((i - 1) * 8)
  done;
  unpad out

(* Single raw block, for test vectors. *)
let raw ~key ~decrypt block =
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 block;
  Bytes.get_int64_be (ecb (key_of_int64 key) ~decrypt b b) 0

let encrypt_block_raw ~(key : int64) (block : int64) : int64 = raw ~key ~decrypt:false block
let decrypt_block_raw ~(key : int64) (block : int64) : int64 = raw ~key ~decrypt:true block
