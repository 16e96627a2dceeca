(** Fixed pool of domains driven in epochs, with the caller as one of
    the lanes.

    {!create} borrows [domains - 1] helper domains; the caller is lane
    [0] and the helpers are lanes [1 .. domains-1].  Between epochs the
    helpers wait on a {!Barrier} (spinning briefly, then parked).  One
    epoch ({!run_steal}) wakes every helper, drains the epoch's run
    queue on every lane — caller included — and joins everyone at the
    barrier again; when the call returns, every lane has finished and
    the helpers are back waiting.

    The run queue is the epoch's item array, frozen in an order the
    caller alone decides.  Lanes claim slots left to right with an
    atomic fetch-and-add, so a lane stuck on a heavy item no longer
    serializes the epoch.  Which lane runs a slot is scheduling; that
    each slot runs exactly once is the invariant.

    An item exception is caught on its lane — the epoch still completes
    for everyone — and re-raised from the epoch call on the caller.
    When several items fail in one epoch, the first latched exception
    is re-raised wrapped in {!Epoch_failures} carrying the count of
    additionally suppressed failures; a lone failure is re-raised
    unwrapped. *)

type t

(** [Epoch_failures (first, suppressed)]: more than one item failed in
    the epoch; [first] is the first latched exception and [suppressed]
    the number of further failures whose exceptions were dropped. *)
exception Epoch_failures of exn * int

(** Borrow [domains - 1] idle helper domains, spawning only those the
    process lacks ([domains = 1] borrows none: every epoch runs on the
    caller alone).  Helpers are never joined: the helpers of a
    {!shutdown} pool wait, parked, for the next pool.  Raises
    [Invalid_argument] when [domains <= 0]. *)
val create : domains:int -> t

(** Number of lanes, caller included. *)
val size : t -> int

(** [run_steal t items f] runs [f ~worker ~slot items.(slot)] exactly
    once for every slot, on whichever lane ([worker], [0] = the caller)
    claims it first.  Blocks until every slot has run.  Item exceptions
    are latched per item (a poisoned item does not abandon the slots
    behind it) and re-raised once the epoch is over, wrapped in
    {!Epoch_failures} when more than one item failed; the pool stays
    fully usable afterwards (the crash-recovery supervisor relies on
    this).  Determinism contract: each item must only touch state owned
    by that item, so results cannot depend on the claim schedule.
    Raises [Invalid_argument] after {!shutdown}. *)
val run_steal : t -> 'a array -> (worker:int -> slot:int -> 'a -> unit) -> unit

(** Hand the helper domains back, idle, for the next pool; when it
    returns they no longer touch this one.  Idempotent. *)
val shutdown : t -> unit
