(* The closure compiler must agree with the interpreter on every
   observable: result value, emit log, final globals. *)

open Podopt

let check src name args =
  let prog = Parse.program src in
  let r1, e1, g1 = Helpers.observe prog name args in
  let r2, e2, g2 = Helpers.observe_compiled prog name args in
  Alcotest.(check Helpers.value) "result" r1 r2;
  Alcotest.(check bool) "emits" true (e1 = e2);
  Alcotest.(check bool) "globals" true (g1 = g2)

let test_basic () =
  check "func f(a, b) { return a * 10 + b; }" "f" [ Value.Int 4; Value.Int 2 ]

let test_control_flow () =
  check
    "func f(n) { let acc = 0; let i = 0; while (i < n) { if (i % 2 == 0) { acc = acc + i; } i = i + 1; } return acc; }"
    "f" [ Value.Int 20 ]

let test_early_return () =
  check "func f(x) { if (x > 0) { return 1; } emit(\"fallthrough\"); return 0 - 1; }" "f"
    [ Value.Int (-3) ]

let test_globals_and_emits () =
  check
    "handler h(x) { global total = global total + x; emit(\"t\", global total); global total = global total + 1; }"
    "h" [ Value.Int 5 ]

let test_user_calls () =
  check
    "func sq(x) { return x * x; } func f(n) { return sq(n) + sq(n + 1); }" "f"
    [ Value.Int 3 ]

let test_recursion () =
  check "func fact(n) { if (n <= 1) { return 1; } return n * fact(n - 1); }" "fact"
    [ Value.Int 10 ]

let test_mutual_recursion () =
  check
    "func is_even(n) { if (n == 0) { return true; } return is_odd(n - 1); } \
     func is_odd(n) { if (n == 0) { return false; } return is_even(n - 1); }"
    "is_even" [ Value.Int 17 ]

let test_missing_args () =
  check "func f(a, b, c) { return b; }" "f" [ Value.Int 1 ]

let test_arg_refs () =
  check "func f() { return arg 0 ++ arg 1; }" "f" [ Value.Str "a"; Value.Str "b" ]

(* Both engines raise the same exception, after charging the same
   ticks and primitive work. *)
let check_same_error src name args expected =
  let prog = Parse.program src in
  let counting_host () =
    let units = ref 0 in
    ({ (Interp.null_host ()) with
       Interp.tick = (fun n -> units := !units + n);
       work = (fun w -> units := !units + (1000 * w)) },
     units)
  in
  let ih, iu = counting_host () and ch, cu = counting_host () in
  Alcotest.check_raises "interp" expected (fun () ->
      ignore (Interp.run ~host:ih prog name args));
  Alcotest.check_raises "compiled" expected (fun () ->
      ignore (Compile.proc prog name ch args));
  Alcotest.(check int) "same ticks and work before the error" !iu !cu

let test_prim_arity_checked () =
  check_same_error "handler f() { return len(arg 0, 2); }" "f" [ Value.Str "ab" ]
    (Value.Type_error "len expects 1 arguments, got 2");
  Prim.register "test_work_prim" ~arity:1 ~work:(fun _ -> 7) (fun _ -> Value.Unit);
  check_same_error "handler f() { return test_work_prim(1, 2); }" "f" []
    (Value.Type_error "test_work_prim expects 1 arguments, got 2")

let test_unassigned_local_unbound () =
  check_same_error "handler g() { if (arg 0 > 0) { let x = 1; } return x; }" "g"
    [ Value.Int 0 ] (Interp.Unbound_variable "x");
  check_same_error "handler g() { return y; }" "g" [] (Interp.Unbound_variable "y");
  check "handler g() { if (arg 0 > 0) { let x = 1; } return x; }" "g" [ Value.Int 1 ]

let test_raise_goes_through_host () =
  let prog = Parse.program "handler h() { raise sync E(7); }" in
  let raised = ref [] in
  let host =
    { (Interp.null_host ()) with
      Interp.raise_event = (fun name mode args -> raised := (name, mode, args) :: !raised)
    }
  in
  let compiled = Compile.proc prog "h" in
  ignore (compiled host []);
  Alcotest.(check int) "one raise" 1 (List.length !raised)

let test_compiled_fewer_ticks_than_interp () =
  (* the cost hook sees the same node count, but the wall-clock advantage
     of compiled code is what the benchmarks measure; here we only check
     tick parity so the cost model is consistent *)
  let src =
    "func f(n) { let acc = 0; let i = 0; while (i < n) { acc = acc + i * 2; i = i + 1; } return acc; }"
  in
  let prog = Parse.program src in
  let count_interp = ref 0 and count_comp = ref 0 in
  let host c = { (Interp.null_host ()) with Interp.tick = (fun n -> c := !c + n) } in
  ignore (Interp.run ~host:(host count_interp) prog "f" [ Value.Int 50 ]);
  let compiled = Compile.proc prog "f" in
  ignore (compiled (host count_comp) [ Value.Int 50 ]);
  Alcotest.(check int) "same node count" !count_interp !count_comp

let suite =
  [
    Alcotest.test_case "basic" `Quick test_basic;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "early return" `Quick test_early_return;
    Alcotest.test_case "globals and emits" `Quick test_globals_and_emits;
    Alcotest.test_case "user calls" `Quick test_user_calls;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "mutual recursion" `Quick test_mutual_recursion;
    Alcotest.test_case "missing args" `Quick test_missing_args;
    Alcotest.test_case "arg refs" `Quick test_arg_refs;
    Alcotest.test_case "raise via host" `Quick test_raise_goes_through_host;
    Alcotest.test_case "primitive arity checked" `Quick test_prim_arity_checked;
    Alcotest.test_case "unassigned local unbound" `Quick test_unassigned_local_unbound;
    Alcotest.test_case "tick parity" `Quick test_compiled_fewer_ticks_than_interp;
  ]
