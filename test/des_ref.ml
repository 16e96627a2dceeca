(* Reference DES (FIPS 46-3): the bit-at-a-time implementation straight
   from the standard's tables, kept as the differential oracle for the
   table-driven [Podopt_crypto.Des].  Every permutation walks its table
   one bit at a time through boxed [Int64] values, so it is slow, but
   each step can be checked against the standard by eye.  Same API and
   padding rules as [Des]; [key] is its own 16 x 48-bit schedule. *)

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

(* Expansion from 32 to 48 bits *)
let e_table = [|
  32;1;2;3;4;5; 4;5;6;7;8;9; 8;9;10;11;12;13; 12;13;14;15;16;17;
  16;17;18;19;20;21; 20;21;22;23;24;25; 24;25;26;27;28;29; 28;29;30;31;32;1;
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

(* S-boxes, each 4x16 *)
let sboxes = [|
  [| 14;4;13;1;2;15;11;8;3;10;6;12;5;9;0;7;
     0;15;7;4;14;2;13;1;10;6;12;11;9;5;3;8;
     4;1;14;8;13;6;2;11;15;12;9;7;3;10;5;0;
     15;12;8;2;4;9;1;7;5;11;3;14;10;0;6;13 |];
  [| 15;1;8;14;6;11;3;4;9;7;2;13;12;0;5;10;
     3;13;4;7;15;2;8;14;12;0;1;10;6;9;11;5;
     0;14;7;11;10;4;13;1;5;8;12;6;9;3;2;15;
     13;8;10;1;3;15;4;2;11;6;7;12;0;5;14;9 |];
  [| 10;0;9;14;6;3;15;5;1;13;12;7;11;4;2;8;
     13;7;0;9;3;4;6;10;2;8;5;14;12;11;15;1;
     13;6;4;9;8;15;3;0;11;1;2;12;5;10;14;7;
     1;10;13;0;6;9;8;7;4;15;14;3;11;5;2;12 |];
  [| 7;13;14;3;0;6;9;10;1;2;8;5;11;12;4;15;
     13;8;11;5;6;15;0;3;4;7;2;12;1;10;14;9;
     10;6;9;0;12;11;7;13;15;1;3;14;5;2;8;4;
     3;15;0;6;10;1;13;8;9;4;5;11;12;7;2;14 |];
  [| 2;12;4;1;7;10;11;6;8;5;3;15;13;0;14;9;
     14;11;2;12;4;7;13;1;5;0;15;10;3;9;8;6;
     4;2;1;11;10;13;7;8;15;9;12;5;6;3;0;14;
     11;8;12;7;1;14;2;13;6;15;0;9;10;4;5;3 |];
  [| 12;1;10;15;9;2;6;8;0;13;3;4;14;7;5;11;
     10;15;4;2;7;12;9;5;6;1;13;14;0;11;3;8;
     9;14;15;5;2;8;12;3;7;0;4;10;1;13;11;6;
     4;3;2;12;9;5;15;10;11;14;1;7;6;0;8;13 |];
  [| 4;11;2;14;15;0;8;13;3;12;9;7;5;10;6;1;
     13;0;11;7;4;9;1;10;14;3;5;12;2;15;8;6;
     1;4;11;13;12;3;7;14;10;15;6;8;0;5;9;2;
     6;11;13;8;1;4;10;7;9;5;0;15;14;2;3;12 |];
  [| 13;2;8;4;6;15;11;1;10;9;3;14;5;0;12;7;
     1;15;13;8;10;3;7;4;12;5;6;11;0;14;9;2;
     7;11;4;1;9;12;14;2;0;6;10;13;15;3;5;8;
     2;1;14;7;4;10;8;13;15;12;9;0;3;5;6;11 |];
|]

(* --- Bit plumbing (bit 1 = MSB, per the standard's numbering) --------- *)

let get_bit (v : int64) ~(width : int) (i : int) : int =
  Int64.to_int (Int64.logand (Int64.shift_right_logical v (width - i)) 1L)

let permute (v : int64) ~(width : int) (table : int array) : int64 =
  let r = ref 0L in
  Array.iter
    (fun src ->
      r := Int64.logor (Int64.shift_left !r 1) (Int64.of_int (get_bit v ~width src)))
    table;
  !r

let rotl28 (v : int64) (n : int) : int64 =
  let mask = 0xFFFFFFFL in
  Int64.logand
    (Int64.logor (Int64.shift_left v n) (Int64.shift_right_logical v (28 - n)))
    mask

(* --- Key schedule ------------------------------------------------------ *)

type key = int64 array (* 16 round keys, 48 bits each *)

let key_schedule (key : int64) : key =
  let k56 = permute key ~width:64 pc1 in
  let c = ref (Int64.shift_right_logical k56 28) in
  let d = ref (Int64.logand k56 0xFFFFFFFL) in
  Array.map
    (fun s ->
      c := rotl28 !c s;
      d := rotl28 !d s;
      let cd = Int64.logor (Int64.shift_left !c 28) !d in
      permute cd ~width:56 pc2)
    shifts

(* --- Feistel function --------------------------------------------------- *)

let feistel (r : int64) (subkey : int64) : int64 =
  let expanded = permute r ~width:32 e_table in
  let x = Int64.logxor expanded subkey in
  let out = ref 0L in
  for i = 0 to 7 do
    let six =
      Int64.to_int (Int64.logand (Int64.shift_right_logical x ((7 - i) * 6)) 0x3FL)
    in
    let row = ((six lsr 4) land 2) lor (six land 1) in
    let col = (six lsr 1) land 0xF in
    let s = sboxes.(i).((row * 16) + col) in
    out := Int64.logor (Int64.shift_left !out 4) (Int64.of_int s)
  done;
  permute !out ~width:32 p_table

(* --- Block operations --------------------------------------------------- *)

let crypt_block (ks : key) ~(decrypt : bool) (block : int64) : int64 =
  let v = permute block ~width:64 ip in
  let l = ref (Int64.shift_right_logical v 32) in
  let r = ref (Int64.logand v 0xFFFFFFFFL) in
  for round = 0 to 15 do
    let k = if decrypt then ks.(15 - round) else ks.(round) in
    let next_r = Int64.logxor !l (feistel !r k) in
    l := !r;
    r := next_r
  done;
  (* final swap: R16 L16 *)
  let pre = Int64.logor (Int64.shift_left !r 32) !l in
  permute pre ~width:64 fp

(* --- Byte-level API ----------------------------------------------------- *)

let block_of_bytes (b : bytes) (off : int) : int64 =
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b (off + i))))
  done;
  !v

let bytes_of_block (v : int64) (b : bytes) (off : int) : unit =
  for i = 0 to 7 do
    Bytes.set b (off + i)
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v ((7 - i) * 8)) 0xFFL)))
  done

let key_of_bytes (b : bytes) : key =
  if Bytes.length b <> 8 then invalid_arg "Des.key_of_bytes: key must be 8 bytes";
  key_schedule (block_of_bytes b 0)

let key_of_int64 = key_schedule

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

(* ECB over padded data. *)
let encrypt_ecb (ks : key) (plaintext : bytes) : bytes =
  let data = pad plaintext in
  let out = Bytes.create (Bytes.length data) in
  let nblocks = Bytes.length data / 8 in
  for i = 0 to nblocks - 1 do
    bytes_of_block (crypt_block ks ~decrypt:false (block_of_bytes data (i * 8))) out (i * 8)
  done;
  out

let decrypt_ecb (ks : key) (ciphertext : bytes) : bytes =
  if Bytes.length ciphertext mod 8 <> 0 then invalid_arg "Des.decrypt_ecb: bad length";
  let out = Bytes.create (Bytes.length ciphertext) in
  let nblocks = Bytes.length ciphertext / 8 in
  for i = 0 to nblocks - 1 do
    bytes_of_block (crypt_block ks ~decrypt:true (block_of_bytes ciphertext (i * 8))) out (i * 8)
  done;
  unpad out

(* CBC with an explicit IV. *)
let encrypt_cbc (ks : key) ~(iv : int64) (plaintext : bytes) : bytes =
  let data = pad plaintext in
  let out = Bytes.create (Bytes.length data) in
  let prev = ref iv in
  let nblocks = Bytes.length data / 8 in
  for i = 0 to nblocks - 1 do
    let b = Int64.logxor (block_of_bytes data (i * 8)) !prev in
    let c = crypt_block ks ~decrypt:false b in
    bytes_of_block c out (i * 8);
    prev := c
  done;
  out

let decrypt_cbc (ks : key) ~(iv : int64) (ciphertext : bytes) : bytes =
  if Bytes.length ciphertext mod 8 <> 0 then invalid_arg "Des.decrypt_cbc: bad length";
  let out = Bytes.create (Bytes.length ciphertext) in
  let prev = ref iv in
  let nblocks = Bytes.length ciphertext / 8 in
  for i = 0 to nblocks - 1 do
    let c = block_of_bytes ciphertext (i * 8) in
    let p = Int64.logxor (crypt_block ks ~decrypt:true c) !prev in
    bytes_of_block p out (i * 8);
    prev := c
  done;
  unpad out

(* Single raw block, for test vectors. *)
let encrypt_block_raw ~(key : int64) (block : int64) : int64 =
  crypt_block (key_schedule key) ~decrypt:false block

let decrypt_block_raw ~(key : int64) (block : int64) : int64 =
  crypt_block (key_schedule key) ~decrypt:true block
