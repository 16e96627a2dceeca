(* Spin-then-park generation barrier.  Arrivals count on an atomic; the
   last arrival resets the count and bumps the atomic generation, which
   is what every waiter watches.  A waiter first spins a bounded number
   of [Domain.cpu_relax] rounds on the generation — an epoch handoff is
   usually shorter than a futex round trip — then parks on the condition
   variable, so a descheduled peer costs no more than a plain blocking
   barrier.  The releaser takes the mutex only when someone is parked.

   A waiter reads the generation before it arrives, so a fast thread
   re-entering [await] for round n+1 can never mistake round n's release
   for its own.  The generation's atomic write and read are also the
   happens-before edge that publishes each party's pre-barrier writes to
   every other party. *)

type t = {
  n : int;
  arrived : int Atomic.t;
  generation : int Atomic.t;  (* completed rounds *)
  parked : int Atomic.t;  (* waiters on [released]; changed under [lock] *)
  lock : Mutex.t;
  released : Condition.t;
}

(* 60-70 us of [cpu_relax] on a 2-vCPU x86 host: long enough to cover
   the coordinator's session+front phase between two drain epochs,
   short enough that a helper idling between runs parks almost at
   once. *)
let spin_rounds = 2_000

let create ~parties =
  if parties <= 0 then invalid_arg "Barrier.create: parties <= 0";
  {
    n = parties;
    arrived = Atomic.make 0;
    generation = Atomic.make 0;
    parked = Atomic.make 0;
    lock = Mutex.create ();
    released = Condition.create ();
  }

let parties t = t.n

let release t =
  Atomic.set t.arrived 0;
  Atomic.incr t.generation;
  if Atomic.get t.parked > 0 then begin
    Mutex.lock t.lock;
    Condition.broadcast t.released;
    Mutex.unlock t.lock
  end

(* A parker registers in [parked] before its last generation check, and
   the releaser bumps the generation before it reads [parked] (both
   sequentially consistent atomics): either the releaser sees the parker
   and broadcasts under the mutex, or the parker sees the new
   generation and never sleeps. *)
let park t gen =
  Mutex.lock t.lock;
  Atomic.incr t.parked;
  while Atomic.get t.generation = gen do
    Condition.wait t.released t.lock
  done;
  Atomic.decr t.parked;
  Mutex.unlock t.lock

let await t =
  let gen = Atomic.get t.generation in
  if Atomic.fetch_and_add t.arrived 1 = t.n - 1 then release t
  else begin
    let spins = ref spin_rounds in
    while !spins > 0 && Atomic.get t.generation = gen do
      Domain.cpu_relax ();
      decr spins
    done;
    if Atomic.get t.generation = gen then park t gen
  end

let rounds t = Atomic.get t.generation
