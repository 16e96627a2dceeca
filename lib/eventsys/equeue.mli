(** Pending-activation queue for asynchronous and timed events: a binary
    min-heap ordered by (due time, sequence number), so equal-time
    activations preserve raise order. *)

type 'a t

val create : unit -> 'a t
val push : 'a t -> due:int -> 'a -> unit
val is_empty : 'a t -> bool
val length : 'a t -> int

(** The earliest item's due; [max_int] when the queue is empty.  With
    {!take}, reads and removes the head without allocating. *)
val next_due : 'a t -> int

(** Remove the earliest item and return it.  Raises [Invalid_argument]
    on an empty queue. *)
val take : 'a t -> 'a

(** Earliest item without removing it. *)
val peek : 'a t -> (int * 'a) option

val pop : 'a t -> (int * 'a) option

(** Non-destructive snapshot of every queued item in pop order
    ((due, seq)-sorted).  Pushing the result, in order, into a fresh
    queue reproduces the original pop order — checkpoint/restore relies
    on this. *)
val to_list : 'a t -> (int * 'a) list

(** Remove all items matching the predicate (Cactus's delayed-event
    cancel); returns how many were removed.  Relative order of the kept
    items is preserved. *)
val remove_if : 'a t -> ('a -> bool) -> int
