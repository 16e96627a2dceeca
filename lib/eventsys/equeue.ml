(* Pending-activation queue for asynchronous and timed events: a binary
   min-heap ordered by (due time, sequence number), so equal-time
   activations preserve raise order.

   The heap lives in three parallel arrays (due, seq, payload), so a
   push or a pop moves ints and one pointer and allocates nothing; sifts
   carry a hole instead of swapping.  Slots at or past [size] are dead,
   and every dead payload slot holds one shared filler value: a pop
   overwrites the slot it vacates with its upper neighbour's filler, so
   popped payloads are never pinned, beyond the one filler value. *)

type 'a t = {
  mutable due : int array;
  mutable seq : int array;
  mutable payload : 'a array;  (* [||] until the first push *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { due = [||]; seq = [||]; payload = [||]; size = 0; next_seq = 0 }

(* Grow to make room for [x]; the new dead slots hold [x] as filler. *)
let grow t x =
  let cap = max 16 (2 * Array.length t.due) in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 t.size;
    a'
  in
  t.due <- extend t.due 0;
  t.seq <- extend t.seq 0;
  t.payload <- extend t.payload x

let set t i due seq x =
  t.due.(i) <- due;
  t.seq.(i) <- seq;
  t.payload.(i) <- x

let move t ~src ~dst = set t dst t.due.(src) t.seq.(src) t.payload.(src)

(* Is slot [i]'s key before (due, seq)? *)
let before t i due seq = t.due.(i) < due || (t.due.(i) = due && t.seq.(i) < seq)

(* Fill the hole at [i] with (due, seq, x), moving it up past later
   parents. *)
let sift_up t i due seq x =
  let i = ref i in
  while !i > 0 && not (before t ((!i - 1) / 2) due seq) do
    let parent = (!i - 1) / 2 in
    move t ~src:parent ~dst:!i;
    i := parent
  done;
  set t !i due seq x

(* Fill the hole at [i] with (due, seq, x), moving it down past earlier
   children. *)
let sift_down t i due seq x =
  let i = ref i and settled = ref false in
  while not !settled do
    let l = (2 * !i) + 1 in
    if l >= t.size then settled := true
    else begin
      let r = l + 1 in
      let c = if r < t.size && before t r t.due.(l) t.seq.(l) then r else l in
      if before t c due seq then begin
        move t ~src:c ~dst:!i;
        i := c
      end
      else settled := true
    end
  done;
  set t !i due seq x

let push t ~due payload =
  if t.size = Array.length t.due then grow t payload;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1) due seq payload

let is_empty t = t.size = 0
let length t = t.size

let next_due t = if t.size = 0 then max_int else t.due.(0)

let take t =
  if t.size = 0 then invalid_arg "Equeue.take: empty queue";
  let top = t.payload.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t 0 t.due.(last) t.seq.(last) t.payload.(last);
  if last + 1 < Array.length t.payload then
    t.payload.(last) <- t.payload.(last + 1);
  top

let peek t = if t.size = 0 then None else Some (t.due.(0), t.payload.(0))

let pop t =
  if t.size = 0 then None
  else
    let due = t.due.(0) in
    Some (due, take t)

(* Non-destructive snapshot in pop order: sort the live slots by the
   heap's own (due, seq) key.  Re-pushing the result into a fresh queue
   (in list order) reproduces the original pop order — the fresh
   sequence numbers are assigned in the same relative order. *)
let to_list t =
  let slots = Array.init t.size Fun.id in
  Array.sort
    (fun i j ->
      match Int.compare t.due.(i) t.due.(j) with
      | 0 -> Int.compare t.seq.(i) t.seq.(j)
      | c -> c)
    slots;
  Array.fold_right (fun i acc -> (t.due.(i), t.payload.(i)) :: acc) slots []

(* Remove all items matching [pred]; used by the Cactus [cancel] operation
   on delayed events.  Returns the number of removed items.  The kept
   items keep their sequence numbers and are re-inserted in slot order. *)
let remove_if t pred =
  let n = t.size in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if not (pred t.payload.(i)) then begin
      move t ~src:i ~dst:!kept;
      incr kept
    end
  done;
  let kept = !kept in
  if kept < n then begin
    let filler = t.payload.(if n < Array.length t.payload then n else 0) in
    Array.fill t.payload kept (n - kept) filler
  end;
  t.size <- 0;
  for i = 0 to kept - 1 do
    t.size <- i + 1;
    sift_up t i t.due.(i) t.seq.(i) t.payload.(i)
  done;
  n - kept
