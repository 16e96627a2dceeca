open Podopt_eventsys

let drain q =
  let rec go acc =
    match Equeue.pop q with None -> List.rev acc | Some (due, p) -> go ((due, p) :: acc)
  in
  go []

let test_time_order () =
  let q = Equeue.create () in
  Equeue.push q ~due:30 "c";
  Equeue.push q ~due:10 "a";
  Equeue.push q ~due:20 "b";
  Alcotest.(check (list (pair int string))) "sorted"
    [ (10, "a"); (20, "b"); (30, "c") ] (drain q)

let test_fifo_within_time () =
  let q = Equeue.create () in
  for i = 0 to 9 do
    Equeue.push q ~due:5 (string_of_int i)
  done;
  Alcotest.(check (list string)) "fifo"
    [ "0"; "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8"; "9" ]
    (List.map snd (drain q))

let test_interleaved_push_pop () =
  let q = Equeue.create () in
  Equeue.push q ~due:2 "b";
  Equeue.push q ~due:1 "a";
  Alcotest.(check (option (pair int string))) "pop a" (Some (1, "a")) (Equeue.pop q);
  Equeue.push q ~due:0 "z";
  Alcotest.(check (option (pair int string))) "pop z" (Some (0, "z")) (Equeue.pop q);
  Alcotest.(check (option (pair int string))) "pop b" (Some (2, "b")) (Equeue.pop q);
  Alcotest.(check (option (pair int string))) "empty" None (Equeue.pop q)

let test_growth () =
  let q = Equeue.create () in
  let n = 1000 in
  for i = n downto 1 do
    Equeue.push q ~due:i (string_of_int i)
  done;
  Alcotest.(check int) "length" n (Equeue.length q);
  let out = List.map fst (drain q) in
  Alcotest.(check (list int)) "sorted" (List.init n (fun i -> i + 1)) out

let test_remove_if () =
  let q = Equeue.create () in
  List.iter (fun (d, s) -> Equeue.push q ~due:d s)
    [ (1, "keep1"); (2, "drop"); (3, "keep2"); (4, "drop") ];
  let removed = Equeue.remove_if q (fun s -> s = "drop") in
  Alcotest.(check int) "two removed" 2 removed;
  Alcotest.(check (list string)) "rest in order" [ "keep1"; "keep2" ]
    (List.map snd (drain q))

let test_peek () =
  let q = Equeue.create () in
  Alcotest.(check (option (pair int string))) "empty peek" None (Equeue.peek q);
  Equeue.push q ~due:7 "x";
  Alcotest.(check (option (pair int string))) "peek" (Some (7, "x")) (Equeue.peek q);
  Alcotest.(check int) "peek does not pop" 1 (Equeue.length q)

(* Popped and removed payloads must not stay reachable from the dead
   heap slots: at most the one shared filler value survives. *)
let test_vacated_slots_release () =
  let n = 100 in
  let q = Equeue.create () and weak = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    Equeue.push q ~due:(i mod 7) payload
  done;
  let alive () =
    Gc.full_major ();
    List.length (List.filter (Weak.check weak) (List.init n Fun.id))
  in
  for _ = 1 to n / 2 do
    ignore (Equeue.pop q)
  done;
  Alcotest.(check bool) "half popped" true (alive () <= (n / 2) + 1);
  ignore (Equeue.remove_if q (fun r -> !r mod 2 = 0));
  Alcotest.(check bool) "removed released" true (alive () <= Equeue.length q + 1);
  while Equeue.pop q <> None do
    ()
  done;
  Alcotest.(check bool) "drained" true (alive () <= 1)

(* Reading the head's due and taking it allocates nothing, unlike
   [peek]/[pop]'s option of a pair. *)
let test_next_due_take_allocate_nothing () =
  let q = Equeue.create () in
  for i = 1 to 64 do
    Equeue.push q ~due:(i mod 5) i
  done;
  let sum = ref 0 in
  let w0 = Gc.minor_words () in
  while Equeue.next_due q < max_int do
    sum := !sum + Equeue.take q
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "every item taken" (64 * 65 / 2) !sum;
  Alcotest.(check (float 0.)) "minor words" 0. words

(* --- model-based: the heap against a (due, seq)-sorted list ----------- *)

type op = Push of int * int | Pop | Peek | Next_due | Take | Remove_if of int | To_list

let pp_op = function
  | Push (due, v) -> Printf.sprintf "push %d %d" due v
  | Pop -> "pop"
  | Peek -> "peek"
  | Next_due -> "next_due"
  | Take -> "take"
  | Remove_if k -> Printf.sprintf "remove_if (mod %d)" k
  | To_list -> "to_list"

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun due v -> Push (due, v)) (int_range 0 20) (int_range 0 99));
        (3, pure Pop);
        (1, pure Peek);
        (1, pure Next_due);
        (2, pure Take);
        (1, map (fun k -> Remove_if k) (int_range 2 5));
        (1, pure To_list);
      ])

let prop_model =
  QCheck2.Test.make ~name:"equeue matches a (due, seq)-sorted list" ~count:1000
    ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
    QCheck2.Gen.(list_size (int_range 0 300) gen_op)
    (fun ops ->
      let q = Equeue.create () in
      (* the model: (due, seq, v) in pop order *)
      let model = ref [] and next_seq = ref 0 in
      let visible = List.map (fun (due, _, v) -> (due, v)) in
      let head () = match visible !model with [] -> None | x :: _ -> Some x in
      List.for_all
        (fun op ->
          let agrees =
            match op with
            | Push (due, v) ->
              Equeue.push q ~due v;
              let item = (due, !next_seq, v) in
              incr next_seq;
              model := List.merge compare !model [ item ];
              true
            | Pop ->
              let want = head () in
              (match !model with [] -> () | _ :: rest -> model := rest);
              Equeue.pop q = want
            | Peek -> Equeue.peek q = head ()
            | Next_due ->
              Equeue.next_due q
              = (match head () with Some (due, _) -> due | None -> max_int)
            | Take ->
              (match !model with
               | [] ->
                 (match Equeue.take q with
                  | _ -> false
                  | exception Invalid_argument _ -> true)
               | (_, _, v) :: rest ->
                 model := rest;
                 Equeue.take q = v)
            | Remove_if k ->
              let before = List.length !model in
              model := List.filter (fun (_, _, v) -> v mod k <> 0) !model;
              Equeue.remove_if q (fun v -> v mod k = 0) = before - List.length !model
            | To_list -> Equeue.to_list q = visible !model
          in
          agrees
          && Equeue.length q = List.length !model
          && Equeue.is_empty q = (!model = []))
        ops)

let suite =
  [
    Alcotest.test_case "time order" `Quick test_time_order;
    Alcotest.test_case "fifo within time" `Quick test_fifo_within_time;
    Alcotest.test_case "interleaved" `Quick test_interleaved_push_pop;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "remove_if" `Quick test_remove_if;
    Alcotest.test_case "peek" `Quick test_peek;
    Alcotest.test_case "next_due and take allocate nothing" `Quick
      test_next_due_take_allocate_nothing;
    Alcotest.test_case "vacated slots release payloads" `Quick
      test_vacated_slots_release;
    QCheck_alcotest.to_alcotest prop_model;
  ]
