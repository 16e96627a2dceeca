(* Shared helpers for the test suites. *)

open Podopt

let value = Alcotest.testable Value.pp Value.equal

(* A host that records emits and global state, with no cost charging;
   a never-set global reads 0.  Returns (host, emits ref, global store). *)
let recording_host () =
  let emits = ref [] in
  let globals = Interp.Globals.create ~unbound:(fun _ -> Value.Int 0) () in
  let host =
    {
      Interp.raise_event = (fun _ _ _ -> ());
      globals;
      lock = ignore;
      emit = (fun tag args -> emits := (tag, args) :: !emits);
      tick = ignore;
      work = ignore;
    }
  in
  (host, emits, globals)

let sorted_globals globals =
  List.sort compare (Interp.Globals.fold (fun k v acc -> (k, v) :: acc) globals [])

let run_proc_with_host prog name args =
  let host, emits, globals = recording_host () in
  let result = Interp.run ~host prog name args in
  (result, List.rev !emits, globals)

(* Observable behaviour of running [name]: result, emit log, final
   globals (sorted). *)
let observe prog name args =
  let result, emits, globals = run_proc_with_host prog name args in
  (result, emits, sorted_globals globals)

let observe_compiled prog name args =
  let host, emits, globals = recording_host () in
  let compiled = Compile.proc prog name in
  let result = compiled host args in
  (result, List.rev !emits, sorted_globals globals)

let check_same_behaviour msg prog1 name1 prog2 name2 args =
  let r1, e1, g1 = observe prog1 name1 args in
  let r2, e2, g2 = observe prog2 name2 args in
  Alcotest.(check value) (msg ^ ": result") r1 r2;
  Alcotest.(check int) (msg ^ ": emit count") (List.length e1) (List.length e2);
  List.iter2
    (fun (t1, a1) (t2, a2) ->
      Alcotest.(check string) (msg ^ ": emit tag") t1 t2;
      Alcotest.(check (list value)) (msg ^ ": emit args") a1 a2)
    e1 e2;
  Alcotest.(check int) (msg ^ ": globals count") (List.length g1) (List.length g2);
  List.iter2
    (fun (k1, v1) (k2, v2) ->
      Alcotest.(check string) (msg ^ ": global name") k1 k2;
      Alcotest.(check value) (msg ^ ": global value") v1 v2)
    g1 g2

(* Emit log of a runtime as (tag, args) list. *)
let runtime_emits rt = Runtime.emits rt

let check_emits msg expected actual =
  Alcotest.(check int) (msg ^ ": emit count") (List.length expected) (List.length actual);
  List.iter2
    (fun (t1, a1) (t2, a2) ->
      Alcotest.(check string) (msg ^ ": tag") t1 t2;
      Alcotest.(check (list value)) (msg ^ ": args") a1 a2)
    expected actual
