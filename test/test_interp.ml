open Podopt

let v = Helpers.value

let run src name args =
  let prog = Parse.program src in
  Helpers.observe prog name args

let test_arith () =
  let r, _, _ = run "func f(a, b) { return a * b + a % b - a / b; }" "f" [ Value.Int 7; Value.Int 3 ] in
  Alcotest.(check v) "7*3 + 7%3 - 7/3" (Value.Int 20) r

let test_float_promotion () =
  let r, _, _ = run "func f() { return 1 + 2.5; }" "f" [] in
  Alcotest.(check v) "int+float" (Value.Float 3.5) r

let test_short_circuit () =
  (* the right operand would divide by zero; && must not evaluate it *)
  let r, _, _ = run "func f(x) { return x > 0 && 10 / x > 2; }" "f" [ Value.Int 0 ] in
  Alcotest.(check v) "short circuit &&" (Value.Bool false) r;
  let r, _, _ = run "func f(x) { return x == 0 || 10 / x > 2; }" "f" [ Value.Int 0 ] in
  Alcotest.(check v) "short circuit ||" (Value.Bool true) r

let test_while_loop () =
  let r, _, _ =
    run "func f(n) { let acc = 0; let i = 1; while (i <= n) { acc = acc + i; i = i + 1; } return acc; }"
      "f" [ Value.Int 10 ]
  in
  Alcotest.(check v) "sum 1..10" (Value.Int 55) r

let test_early_return () =
  let r, emits, _ =
    run
      "func f(x) { if (x < 0) { emit(\"neg\"); return 0 - x; } emit(\"pos\"); return x; }"
      "f" [ Value.Int (-5) ]
  in
  Alcotest.(check v) "abs" (Value.Int 5) r;
  Alcotest.(check int) "only neg branch emitted" 1 (List.length emits)

let test_globals () =
  let _, _, globals =
    run "handler h() { global count = global count + 1; global count = global count + 1; }"
      "h" []
  in
  Alcotest.(check (list (pair string v))) "count=2" [ ("count", Value.Int 2) ] globals

let test_user_call_and_recursion () =
  let r, _, _ =
    run "func fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }" "fib"
      [ Value.Int 12 ]
  in
  Alcotest.(check v) "fib 12" (Value.Int 144) r

let test_args_beyond_params_default_unit () =
  let r, _, _ = run "func f(a, b) { return b; }" "f" [ Value.Int 1 ] in
  Alcotest.(check v) "missing param is Unit" Value.Unit r

let test_arg_expr () =
  let r, _, _ = run "func f() { return arg 1; }" "f" [ Value.Int 1; Value.Str "x" ] in
  Alcotest.(check v) "arg 1" (Value.Str "x") r;
  let prog = Parse.program "func f() { return arg 5; }" in
  (try
     ignore (Interp.run prog "f" []);
     Alcotest.fail "expected Type_error"
   with Value.Type_error _ -> ())

let test_unbound_variable () =
  let prog = Parse.program "func f() { return x; }" in
  Alcotest.check_raises "unbound" (Interp.Unbound_variable "x") (fun () ->
      ignore (Interp.run prog "f" []))

let test_division_by_zero () =
  let prog = Parse.program "func f() { return 1 / 0; }" in
  (try
     ignore (Interp.run prog "f" []);
     Alcotest.fail "expected Type_error"
   with Value.Type_error _ -> ())

let test_prims () =
  let r, _, _ = run "func f(s) { return len(s); }" "f" [ Value.Str "hello" ] in
  Alcotest.(check v) "len" (Value.Int 5) r;
  let r, _, _ =
    run "func f(b) { return bytes_xor_fold(b); }" "f"
      [ Value.Bytes (Bytes.of_string "\x01\x02\x04") ]
  in
  Alcotest.(check v) "xor fold" (Value.Int 7) r;
  let r, _, _ = run "func f() { return band(bor(12, 3), 10); }" "f" [] in
  Alcotest.(check v) "bit ops" (Value.Int 10) r

let test_ticks_counted () =
  let prog = Parse.program "func f() { let x = 1; let y = 2; return x + y; }" in
  let ticks = ref 0 in
  let host = { (Interp.null_host ()) with Interp.tick = (fun n -> ticks := !ticks + n) } in
  ignore (Interp.run ~host prog "f" []);
  Alcotest.(check bool) "some ticks charged" true (!ticks >= 6)

let test_call_depth_limit () =
  let prog = Parse.program "func loop(n) { return loop(n + 1); }" in
  Alcotest.check_raises "interp bounded" Interp.Call_depth_exceeded (fun () ->
      ignore (Interp.run prog "loop" [ Value.Int 0 ]));
  let compiled = Compile.proc prog "loop" in
  Alcotest.check_raises "compiled bounded" Interp.Call_depth_exceeded (fun () ->
      ignore (compiled (Interp.null_host ()) [ Value.Int 0 ]));
  (* the depth counter must unwind: a subsequent shallow call succeeds *)
  let prog2 = Parse.program "func ok() { return 5; }" in
  Alcotest.(check Helpers.value) "recovered" (Value.Int 5) (Interp.run prog2 "ok" [])

(* The depth counter unwinds on every exit, exceptions included: after
   3,000 calls that raise out of a callee, a 1,500-deep recursion still
   fits under the 2,000 limit, on both engines. *)
let test_call_depth_unwinds () =
  let prog =
    Parse.program
      "func boom(n) { return n / 0; } \
       func f(n) { return boom(n); } \
       func deep(n) { if (n == 0) { return 0; } return 1 + deep(n - 1); }"
  in
  let engines =
    [
      ("interp", fun name args -> Interp.run prog name args);
      ("compiled", fun name args -> Compile.proc prog name (Interp.null_host ()) args);
    ]
  in
  List.iter
    (fun (engine, run) ->
      for _ = 1 to 3_000 do
        match run "f" [ Value.Int 1 ] with
        | _ -> Alcotest.failf "%s: division by zero returned" engine
        | exception Value.Type_error _ -> ()
      done;
      let depth = Interp.enter_call () in
      decr depth;
      Alcotest.(check int) (engine ^ ": depth back to 0") 0 !depth;
      Alcotest.(check Helpers.value)
        (engine ^ ": 1,500 deep") (Value.Int 1_500)
        (run "deep" [ Value.Int 1_500 ]))
    engines

(* The global store: slots survive growth, never-set slots raise
   through [unbound] and are invisible to [fold]. *)
let test_global_store () =
  let module G = Interp.Globals in
  let exception Unbound of string in
  let st = G.create ~unbound:(fun g -> raise (Unbound g)) () in
  let s0 = G.slot st "g0" in
  G.set st s0 (Value.Int 0);
  let slots = List.init 99 (fun i -> G.slot st (Printf.sprintf "g%d" (i + 1))) in
  List.iteri (fun i s -> G.set st s (Value.Int (i + 1))) slots;
  Alcotest.(check int) "g0 keeps its slot" s0 (G.slot st "g0");
  Alcotest.(check Helpers.value) "g0 keeps its value" (Value.Int 0) (G.get st s0);
  Alcotest.(check Helpers.value) "g99 by name" (Value.Int 99) (G.find st "g99");
  List.iteri
    (fun i s -> Alcotest.(check int) "stable slot" s (G.slot st (Printf.sprintf "g%d" (i + 1))))
    slots;
  let never = G.slot st "never" in
  Alcotest.check_raises "never-set slot" (Unbound "never") (fun () ->
      ignore (G.get st never));
  Alcotest.check_raises "never-set name" (Unbound "absent") (fun () ->
      ignore (G.find st "absent"));
  let names = G.fold (fun k _ acc -> k :: acc) st [] in
  Alcotest.(check int) "fold sees the 100 set slots" 100 (List.length names);
  Alcotest.(check bool) "fold skips the never-set slot" false (List.mem "never" names);
  G.replace st "never" (Value.Unit);
  Alcotest.(check int) "set once, folded" 101 (G.fold (fun _ _ n -> n + 1) st 0)

let test_raise_hook () =
  let prog = Parse.program "handler h() { raise async Next(41 + 1); }" in
  let raised = ref [] in
  let host =
    { (Interp.null_host ()) with
      Interp.raise_event = (fun name mode args -> raised := (name, mode, args) :: !raised)
    }
  in
  ignore (Interp.run ~host prog "h" []);
  match !raised with
  | [ ("Next", Ast.Async, [ Value.Int 42 ]) ] -> ()
  | _ -> Alcotest.fail "raise hook not called correctly"

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "float promotion" `Quick test_float_promotion;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "while loop" `Quick test_while_loop;
    Alcotest.test_case "early return" `Quick test_early_return;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "user calls / recursion" `Quick test_user_call_and_recursion;
    Alcotest.test_case "missing params default Unit" `Quick test_args_beyond_params_default_unit;
    Alcotest.test_case "arg expr" `Quick test_arg_expr;
    Alcotest.test_case "unbound variable" `Quick test_unbound_variable;
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "primitives" `Quick test_prims;
    Alcotest.test_case "ticks counted" `Quick test_ticks_counted;
    Alcotest.test_case "call depth bounded" `Quick test_call_depth_limit;
    Alcotest.test_case "call depth unwinds" `Quick test_call_depth_unwinds;
    Alcotest.test_case "global store" `Quick test_global_store;
    Alcotest.test_case "raise hook" `Quick test_raise_hook;
  ]
