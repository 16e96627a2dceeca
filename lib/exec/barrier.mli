(** Reusable round barrier.

    [parties] participants call {!await}; every call blocks until all
    parties of the current round have arrived, then the round advances
    and everyone is released together.  The barrier is cyclic: the same
    [t] brackets every epoch of the broker's simulation loop (route on
    the coordinator / drain on every lane alternate strictly, which is
    what keeps shard state single-writer at every instant). *)

type t

(** Raises [Invalid_argument] when [parties <= 0]. *)
val create : parties:int -> t

val parties : t -> int

(** Arrive and block until all parties of this round have arrived. *)
val await : t -> unit

(** Completed rounds so far (monotone; for tests and introspection). *)
val rounds : t -> int
