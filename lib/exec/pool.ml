(* The caller is lane 0 and [domains - 1] helper domains are lanes
   1 .. domains-1; one barrier shared by every lane brackets each epoch.
   The caller publishes the epoch body in [body], all lanes meet at the
   barrier (epoch start), run the body, and meet again (epoch end).  The
   barrier's atomic generation is also what publishes the caller's
   writes ([body], [alive]) to the helpers and the helpers' writes back
   to the caller (happens-before).

   The body claims slots of the epoch's frozen item array with one
   fetch-and-add each — the whole steal protocol: every slot is claimed
   by exactly one lane, and an idle lane "steals" simply by claiming the
   next slot first, so a lane stuck on a heavy item no longer
   serializes the epoch.

   Helper domains outlive the pools that borrow them: [shutdown] counts
   its helpers idle, and [create] lends its lane loops to idle helpers
   before it spawns new ones.  A joined domain's heap is orphaned and
   adopted by whichever domain next starts a major GC cycle, at a
   moment that depends on GC timing: a process that built broker after
   broker saw its peak heap jump, now and then, by a dead helper's
   heap. *)

type t = {
  barrier : Barrier.t;
  mutable body : int -> unit;  (* this epoch's work, run by every lane *)
  failure : exn option Atomic.t;
  suppressed : int Atomic.t;  (* item failures beyond the latched one *)
  mutable alive : bool;
}

(* Helper domains between pools wait for a lane loop on [pending];
   [idle] counts those that no pool has borrowed. *)
let pending : (unit -> unit) Queue.t = Queue.create ()
let idle = ref 0
let lock = Mutex.create ()
let posted = Condition.create ()

let rec serve () =
  Mutex.lock lock;
  while Queue.is_empty pending do
    Condition.wait posted lock
  done;
  let job = Queue.pop pending in
  Mutex.unlock lock;
  job ();
  serve ()

(* Run [job] on an idle helper, or on a new one. *)
let lend job =
  Mutex.lock lock;
  Queue.push job pending;
  let spawn = !idle = 0 in
  if not spawn then begin
    decr idle;
    Condition.signal posted
  end;
  Mutex.unlock lock;
  if spawn then ignore (Domain.spawn serve : unit Domain.t)

exception Epoch_failures of exn * int

let () =
  Printexc.register_printer (function
    | Epoch_failures (exn, suppressed) ->
      Some
        (Printf.sprintf "Pool.Epoch_failures(%s, +%d suppressed)"
           (Printexc.to_string exn) suppressed)
    | _ -> None)

let latch t exn =
  if not (Atomic.compare_and_set t.failure None (Some exn)) then
    Atomic.incr t.suppressed

(* A helper waits on the start barrier between epochs; passing it
   with the pool shut down is its signal to count itself idle, which it
   confirms at one last barrier. *)
let helper t lane =
  let rec loop () =
    Barrier.await t.barrier;
    if t.alive then begin
      t.body lane;
      Barrier.await t.barrier;
      loop ()
    end
  in
  loop ();
  Mutex.lock lock;
  incr idle;
  Mutex.unlock lock;
  Barrier.await t.barrier

let create ~domains =
  if domains <= 0 then invalid_arg "Pool.create: domains <= 0";
  let t =
    {
      barrier = Barrier.create ~parties:domains;
      body = ignore;
      failure = Atomic.make None;
      suppressed = Atomic.make 0;
      alive = true;
    }
  in
  for i = 1 to domains - 1 do
    lend (fun () -> helper t i)
  done;
  t

let size t = Barrier.parties t.barrier

let run_steal t items f =
  if not t.alive then invalid_arg "Pool.run_steal: pool is shut down";
  Atomic.set t.failure None;
  Atomic.set t.suppressed 0;
  let next = Atomic.make 0 and n = Array.length items in
  let rec claim lane =
    let slot = Atomic.fetch_and_add next 1 in
    if slot < n then begin
      (* catch per item, not per lane: a poisoned item must not abandon
         the unclaimed slots behind it *)
      (try f ~worker:lane ~slot items.(slot) with exn -> latch t exn);
      claim lane
    end
  in
  t.body <- claim;
  Barrier.await t.barrier;
  claim 0;
  Barrier.await t.barrier;
  match Atomic.get t.failure with
  | None -> ()
  | Some exn ->
    (match Atomic.get t.suppressed with
     | 0 -> raise exn
     | n -> raise (Epoch_failures (exn, n)))

let shutdown t =
  if t.alive then begin
    t.alive <- false;
    Barrier.await t.barrier;
    (* the helpers are back on the idle list *)
    Barrier.await t.barrier
  end
