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

(* A host that counts node ticks, global accesses and primitive work
   units, and stamps every emit, every raise, the exit and any exception
   with the three counts so far: the points where an event runtime can
   read its clock.  [stamped run] calls [run] on a fresh such host and
   returns the stamps in order with the final globals, sorted. *)
let stamped run =
  let ticks = ref 0 and locks = ref 0 and work = ref 0 in
  let stamps = ref [] in
  let stamp what = stamps := (what, !ticks, !locks, !work) :: !stamps in
  let call tag args =
    Printf.sprintf "%s(%s)" tag (String.concat ", " (List.map Value.to_string args))
  in
  let globals = Interp.Globals.create ~unbound:(fun _ -> Value.Int 0) () in
  let host =
    {
      Interp.raise_event =
        (fun ev mode args -> stamp ("raise " ^ Ast.mode_to_string mode ^ " " ^ call ev args));
      globals;
      lock = (fun n -> locks := !locks + n);
      emit = (fun tag args -> stamp ("emit " ^ call tag args));
      tick = (fun n -> ticks := !ticks + n);
      work = (fun n -> work := !work + n);
    }
  in
  (match run host with
   | v -> stamp ("exit " ^ Value.to_string v)
   | exception e -> stamp ("exception " ^ Printexc.to_string e));
  (List.rev !stamps, sorted_globals globals)

let show_stamped (stamps, globals) =
  String.concat "\n"
    (List.map
       (fun (what, ticks, locks, work) ->
         Printf.sprintf "  %s @ ticks %d, locks %d, work %d" what ticks locks work)
       stamps
    @ List.map (fun (g, v) -> Printf.sprintf "  %s = %s" g (Value.to_string v)) globals)

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

(* One broker run the way [podopt serve] makes it: the measured
   protocol ({!Podopt_broker.Loadgen.steady}), then the serve document,
   the per-shard snapshot report, the run summary and each shard's
   session count. *)
type served = {
  json : string;
  snapshots : string;
  summary : Podopt_broker.Loadgen.summary;
  sessions : int list;
}

let serve ?warmup_ops cfg profile =
  let module B = Podopt_broker in
  let broker = B.Broker.create cfg in
  Fun.protect
    ~finally:(fun () -> B.Broker.shutdown broker)
    (fun () ->
      let summary = B.Loadgen.steady ?warmup_ops broker profile in
      {
        json = B.Report.json ~metrics:false broker summary;
        snapshots = Fmt.str "%a" B.Report.pp_snapshots broker;
        summary;
        sessions =
          Array.to_list (Array.map (fun s -> s.B.Shard.sessions) (B.Broker.shards broker));
      })
