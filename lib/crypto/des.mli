(** DES block cipher (FIPS 46-3), table-driven on native ints.

    Used by SecComm's DESPrivacy micro-protocol; the Fig. 12 experiment
    is dominated by this code.  Half-blocks are native ints and every
    permutation is a table lookup built at module initialisation from
    the standard's tables.  A key schedule is one 32-entry int array;
    SecComm's primitives rebuild it for every message, as the 2002
    SecComm did.  Encryption allocates only its output buffer.
    Reproduction artifact only — DES is long broken; do not use for real
    security. *)

(** Expanded key schedule (16 round keys). *)
type key

(** Build a schedule from an 8-byte key.  Raises [Invalid_argument] on
    other lengths. *)
val key_of_bytes : bytes -> key

val key_of_int64 : int64 -> key

(** {1 Padding (PKCS#7-style to 8-byte blocks)} *)

exception Bad_padding

val pad : bytes -> bytes

(** Raises {!Bad_padding} on malformed input. *)
val unpad : bytes -> bytes

(** {1 Modes}

    [encrypt_*] pads; [decrypt_*] unpads (raising {!Bad_padding} on
    corrupt data).  Decrypt functions raise [Invalid_argument] when the
    ciphertext is not block-aligned. *)

val encrypt_ecb : key -> bytes -> bytes
val decrypt_ecb : key -> bytes -> bytes
val encrypt_cbc : key -> iv:int64 -> bytes -> bytes
val decrypt_cbc : key -> iv:int64 -> bytes -> bytes

(** {1 Single raw blocks (test vectors)} *)

val encrypt_block_raw : key:int64 -> int64 -> int64
val decrypt_block_raw : key:int64 -> int64 -> int64
