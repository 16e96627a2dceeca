(* HIR primitive bindings for the crypto substrate, so SecComm handlers
   written in HIR can call into the real implementations.  [install] is
   idempotent. *)

open Podopt_hir

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    (* Work model: fixed + per-byte units, independent of how fast the
       implementation behind a primitive is.  DES pays 8000 units for the
       key schedule it recomputes per call (as the 2002 SecComm did per
       message) plus 40 units/byte of 16-round Feistel work; HMAC-MD5
       pays two extra compression blocks; XOR and CRC are 1-2
       units/byte. *)
    let bytes_work ~fixed ~per_byte = function
      | [ _; Value.Bytes data ] | [ Value.Bytes data ] ->
        fixed + (per_byte * Bytes.length data)
      | _ -> 0
    in
    Prim.register "des_encrypt" ~pure:true ~arity:2
      ~work:(bytes_work ~fixed:8000 ~per_byte:40) (fun args ->
        match args with
        | [ Value.Bytes key; Value.Bytes data ] ->
          Value.Bytes (Des.encrypt_ecb (Des.key_of_bytes key) data)
        | _ -> Value.type_error "des_encrypt(key_bytes, data_bytes)");
    Prim.register "des_decrypt" ~pure:true ~arity:2 ~work:(bytes_work ~fixed:8000 ~per_byte:40) (fun args ->
        match args with
        | [ Value.Bytes key; Value.Bytes data ] ->
          Value.Bytes (Des.decrypt_ecb (Des.key_of_bytes key) data)
        | _ -> Value.type_error "des_decrypt(key_bytes, data_bytes)");
    Prim.register "xor_apply" ~pure:true ~arity:2 ~work:(bytes_work ~fixed:0 ~per_byte:1) (fun args ->
        match args with
        | [ Value.Bytes key; Value.Bytes data ] ->
          Value.Bytes (Xor_cipher.apply ~key data)
        | _ -> Value.type_error "xor_apply(key_bytes, data_bytes)");
    Prim.register "hmac_md5" ~pure:true ~arity:2 ~work:(bytes_work ~fixed:1000 ~per_byte:8) (fun args ->
        match args with
        | [ Value.Bytes key; Value.Bytes data ] ->
          Value.Bytes (Hmac_md5.compute ~key data)
        | _ -> Value.type_error "hmac_md5(key_bytes, data_bytes)");
    Prim.register "md5" ~pure:true ~arity:1 ~work:(bytes_work ~fixed:1000 ~per_byte:8) (fun args ->
        match args with
        | [ Value.Bytes data ] -> Value.Bytes (Md5.digest_bytes data)
        | _ -> Value.type_error "md5(data_bytes)");
    Prim.register "crc32" ~pure:true ~arity:1 ~work:(bytes_work ~fixed:0 ~per_byte:2) (fun args ->
        match args with
        | [ Value.Bytes data ] -> Value.Int (Crc32.compute data)
        | _ -> Value.type_error "crc32(data_bytes)")
  end
