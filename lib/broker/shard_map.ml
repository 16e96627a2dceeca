(* FNV-1a routing hash.  xorshift (Prng) needs a seed per stream; here we
   need a stateless stable map from ids to shards, which is exactly what
   FNV-1a gives: cheap, deterministic, and well-spread on short ASCII
   keys like session ids. *)

let offset_basis = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* a [for] loop, not [String.iter]: the accumulator stays an unboxed
   Int64 instead of one boxed per character through a closure *)
let hash (s : string) : int64 =
  let h = ref offset_basis in
  for i = 0 to String.length s - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) prime
  done;
  !h

let shard_of ~shards id =
  if shards <= 0 then invalid_arg "Shard_map.shard_of: shards <= 0";
  Int64.to_int (Int64.unsigned_rem (hash id) (Int64.of_int shards))

(* Routing disciplines.  [Hash] is the uniform FNV-1a map above; [Zipf s]
   deliberately skews the same hash through a Zipf(s) CDF over shard
   ranks, so shard 0 is hot, shard 1 cooler, and so on — the
   heavy-tailed per-shard load a popularity-ranked workload produces.
   Both are stateless and deterministic: the same id always lands on
   the same shard for a given (route, shards). *)

type route = Hash | Zipf of float

(* The router builds everything that depends only on (route, shards)
   once: for [Zipf s] that is the rank weights' partial sums, accumulated
   in rank order exactly as a per-id walk would, so every float and
   every comparison matches computing the CDF afresh for each id. *)
let router ~route ~shards =
  if shards <= 0 then invalid_arg "Shard_map.router: shards <= 0";
  match route with
  | Hash -> shard_of ~shards
  | Zipf s ->
    let cdf = Array.make shards 0.0 in
    let acc = ref 0.0 in
    for rank = 0 to shards - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (rank + 1)) s);
      cdf.(rank) <- !acc
    done;
    let total = !acc in
    fun id ->
      (* FNV-1a on short similar keys concentrates its entropy in the low
         bits, so finalize with the murmur3 fmix64 avalanche before
         taking the top 53 bits as a uniform u in [0,1); then invert the
         Zipf CDF: the first rank whose partial sum exceeds u * total *)
      let mixed =
        let h = hash id in
        let h = Int64.logxor h (Int64.shift_right_logical h 33) in
        let h = Int64.mul h 0xff51afd7ed558ccdL in
        let h = Int64.logxor h (Int64.shift_right_logical h 33) in
        let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
        Int64.logxor h (Int64.shift_right_logical h 33)
      in
      let u =
        Int64.to_float (Int64.shift_right_logical mixed 11)
        /. 9007199254740992.0
      in
      let target = u *. total in
      let rank = ref 0 in
      while !rank < shards - 1 && not (target < cdf.(!rank)) do
        incr rank
      done;
      !rank

let route_shard ~route ~shards id = router ~route ~shards id

let route_to_string = function
  | Hash -> "hash"
  | Zipf s -> "zipf:" ^ Podopt_codec.Lines.float_to_string s

let route_of_string str =
  match str with
  | "hash" -> Ok Hash
  | _ ->
    (match String.index_opt str ':' with
     | Some i when String.sub str 0 i = "zipf" ->
       let rest = String.sub str (i + 1) (String.length str - i - 1) in
       (match float_of_string_opt rest with
        | Some s when s > 0.0 && Float.is_finite s -> Ok (Zipf s)
        | Some _ | None ->
          Error (Printf.sprintf "bad zipf skew %S (expected zipf:S, S > 0)" rest)
     )
     | _ ->
       Error
         (Printf.sprintf "unknown route %S (expected hash or zipf:S)" str))
