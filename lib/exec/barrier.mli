(** Reusable spin-then-park round barrier.

    [parties] participants call {!await}; every call returns only after
    all parties of the current round have arrived, then the round
    advances.  A waiter spins a bounded, constant number of
    [Domain.cpu_relax] rounds on an atomic generation counter, then
    parks on a condition variable; the last arrival bumps the generation
    and broadcasts only when someone is parked.  A one-party barrier
    takes no mutex.  The barrier is cyclic: the same [t] brackets every
    epoch of the broker's simulation loop (route on the coordinator /
    drain on every lane alternate strictly, which is what keeps shard
    state single-writer at every instant).  Everything a party wrote
    before its [await] is visible to every party after theirs. *)

type t

(** Raises [Invalid_argument] when [parties <= 0]. *)
val create : parties:int -> t

val parties : t -> int

(** Arrive and wait until all parties of this round have arrived. *)
val await : t -> unit

(** Completed rounds so far (monotone; for tests and introspection). *)
val rounds : t -> int
