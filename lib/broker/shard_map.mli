(** Stable session-to-shard routing.

    A session id is hashed with FNV-1a (64-bit) and reduced modulo the
    shard count, so the same session always lands on the same shard —
    the invariant that lets each shard keep per-session protocol state
    in its own runtime — and ids spread near-uniformly across shards. *)

val hash : string -> int64
(** FNV-1a over the id's bytes. *)

val shard_of : shards:int -> string -> int
(** Shard index in [0, shards); raises [Invalid_argument] when
    [shards <= 0]. *)

(** Routing discipline: [Hash] spreads ids near-uniformly (FNV-1a mod
    shards); [Zipf s] skews the same hash through a Zipf(s) CDF over
    shard ranks — shard 0 hottest — modelling popularity-ranked load.
    Both are stateless: one id always maps to one shard. *)
type route = Hash | Zipf of float

val router : route:route -> shards:int -> string -> int
(** [router ~route ~shards] is the id-to-shard map of the given
    discipline, with the Zipf CDF's partial sums computed once; raises
    [Invalid_argument] when [shards <= 0]. *)

val route_shard : route:route -> shards:int -> string -> int
(** [router] applied to one id. *)

val route_to_string : route -> string
(** ["hash"] or ["zipf:S"] — a single whitespace-free token, stable for
    replay logs and CLI round-trips: [S] prints as
    {!Podopt_codec.Lines.float_to_string} does, so it reads back to the
    same float. *)

val route_of_string : string -> (route, string) result
