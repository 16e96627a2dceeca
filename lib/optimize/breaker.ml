(* Sliding-window circuit breaker.  The window is a ring of per-batch
   (events, faults) samples; the trip test runs over the ring's sums so
   one noisy batch cannot trip a breaker that a healthy neighborhood
   would keep closed, and min_events keeps tiny windows (startup, idle
   shards) from tripping on 1-of-2 faults. *)

type policy = {
  window : int;
  trip_permille : int;
  min_events : int;
  cooldown : int;
}

let default_policy =
  { window = 8; trip_permille = 150; min_events = 16; cooldown = 16 }

type state = Closed | Open of int (* remaining cool-down batches *)

type t = {
  policy : policy;
  ring : (int * int) array; (* (events, faults) per batch *)
  mutable filled : int;     (* samples currently valid, <= window *)
  mutable next : int;       (* ring write cursor *)
  mutable state : state;
  mutable trips : int;
}

let create ?(policy = default_policy) () =
  if policy.window <= 0 then invalid_arg "Breaker.create: window <= 0";
  if policy.trip_permille < 0 || policy.trip_permille > 1000 then
    invalid_arg "Breaker.create: trip_permille out of 0..1000";
  if policy.min_events < 0 then invalid_arg "Breaker.create: min_events < 0";
  if policy.cooldown < 1 then invalid_arg "Breaker.create: cooldown < 1";
  {
    policy;
    ring = Array.make policy.window (0, 0);
    filled = 0;
    next = 0;
    state = Closed;
    trips = 0;
  }

let policy t = t.policy

type outcome = Ok | Tripped | Cooling | Recovered

let clear_window t =
  Array.fill t.ring 0 (Array.length t.ring) (0, 0);
  t.filled <- 0;
  t.next <- 0

let sums t =
  let events = ref 0 and faults = ref 0 in
  for i = 0 to t.filled - 1 do
    let e, f = t.ring.(i) in
    events := !events + e;
    faults := !faults + f
  done;
  (!events, !faults)

let observe t ~events ~faults =
  match t.state with
  | Open n ->
    if n <= 1 then begin
      (* the window restarts empty: faults from the pre-trip regime must
         not count against the freshly re-optimized path *)
      t.state <- Closed;
      clear_window t;
      Recovered
    end
    else begin
      t.state <- Open (n - 1);
      Cooling
    end
  | Closed ->
    t.ring.(t.next) <- (events, faults);
    t.next <- (t.next + 1) mod t.policy.window;
    if t.filled < t.policy.window then t.filled <- t.filled + 1;
    let ev, fa = sums t in
    if ev >= t.policy.min_events && fa * 1000 >= t.policy.trip_permille * ev
    then begin
      t.state <- Open t.policy.cooldown;
      t.trips <- t.trips + 1;
      clear_window t;
      Tripped
    end
    else Ok

let is_open t = match t.state with Open _ -> true | Closed -> false

let trips t = t.trips

let reset_measurements t =
  t.trips <- 0;
  clear_window t

let copy t = { t with ring = Array.copy t.ring }
