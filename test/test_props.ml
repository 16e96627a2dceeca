(* Property-based tests (qcheck):

   1. HIR semantics preservation: for random well-formed programs,
      [optimize p] and [compile p] behave exactly like [interp p].
   2. Event-graph invariants of the GraphBuilder algorithm.
   3. End-to-end: for random event configurations, the optimized runtime
      is observationally equivalent to the generic one, including under
      rebinding. *)

open Podopt

(* --- random HIR programs ---------------------------------------------- *)

let int_vars = [ "v0"; "v1"; "v2"; "v3" ]
let globals = [ "g0"; "g1" ]

(* With [wrong_arity], a rare node calls a primitive with the wrong
   number of arguments, which both engines must reject the same way. *)
let gen_int_expr_of ~wrong_arity : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Ast.Lit (Value.Int i)) (int_range (-20) 20);
                map (fun v -> Ast.Var v) (oneofl int_vars);
                map (fun g -> Ast.Global g) (oneofl globals);
                map (fun i -> Ast.Arg i) (int_range 0 1);
              ]
          else
            let well_formed =
              oneof
                [
                  map (fun i -> Ast.Lit (Value.Int i)) (int_range (-20) 20);
                  map2
                    (fun op (a, b) -> Ast.Binop (op, a, b))
                    (oneofl [ Ast.Add; Ast.Sub; Ast.Mul ])
                    (pair (self (n / 2)) (self (n / 2)));
                  map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1));
                  map2
                    (fun f a -> Ast.Call (f, [ a ]))
                    (oneofl [ "abs" ])
                    (self (n - 1));
                  map2
                    (fun f (a, b) -> Ast.Call (f, [ a; b ]))
                    (oneofl [ "min"; "max" ])
                    (pair (self (n / 2)) (self (n / 2)));
                ]
            in
            (* abs with two arguments, min or max with one *)
            let miscounted =
              map2
                (fun f (a, b) -> Ast.Call (f, if f = "abs" then [ a; b ] else [ a ]))
                (oneofl [ "abs"; "min"; "max" ])
                (pair (self (n / 2)) (self (n / 2)))
            in
            if wrong_arity then frequency [ (12, well_formed); (1, miscounted) ]
            else well_formed)
        (min n 6))

let gen_int_expr = gen_int_expr_of ~wrong_arity:false

let gen_cond_of ~wrong_arity : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let e = gen_int_expr_of ~wrong_arity in
  map2
    (fun op (a, b) -> Ast.Binop (op, a, b))
    (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
    (pair e e)

let counter = ref 0

let gen_block_of ~wrong_arity : Ast.block QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_int_expr = gen_int_expr_of ~wrong_arity in
  let gen_cond = gen_cond_of ~wrong_arity in
  let gen_stmt self depth =
    let leaf =
      [
        map2 (fun v e -> Ast.Let (v, e)) (oneofl int_vars) gen_int_expr;
        map2 (fun v e -> Ast.Assign (v, e)) (oneofl int_vars) gen_int_expr;
        map2 (fun g e -> Ast.Set_global (g, e)) (oneofl globals) gen_int_expr;
        map (fun e -> Ast.Emit ("out", [ e ])) gen_int_expr;
        return (Ast.Return None);
      ]
    in
    if depth <= 0 then oneof leaf
    else
      oneof
        (leaf
        @ [
            map3 (fun c t e -> Ast.If (c, t, e)) gen_cond (self (depth - 1))
              (self (depth - 1));
            map
              (fun body ->
                incr counter;
                let c = Printf.sprintf "wc%d" !counter in
                (* a bounded loop whose counter is private to the loop *)
                Ast.If
                  ( Ast.Lit (Value.Bool true),
                    [
                      Ast.Let (c, Ast.Lit (Value.Int 0));
                      Ast.While
                        ( Ast.Binop (Ast.Lt, Ast.Var c, Ast.Lit (Value.Int 4)),
                          body @ [ Ast.Assign (c, Ast.Binop (Ast.Add, Ast.Var c, Ast.Lit (Value.Int 1))) ] );
                    ],
                    [] ))
              (self (depth - 1));
          ])
  in
  let rec block depth =
    let open QCheck2.Gen in
    list_size (int_range 1 5) (gen_stmt block depth)
  in
  block 2

let gen_block = gen_block_of ~wrong_arity:false

(* initialize every variable and global before the random body runs,
   except the variable named by [drop], which a read before its first
   assignment finds unbound *)
let wrap_body ?drop (body : Ast.block) : Ast.proc =
  let inits =
    List.filter_map
      (fun v -> if Some v = drop then None else Some (Ast.Let (v, Ast.Lit (Value.Int 1))))
      int_vars
    @ List.map (fun g -> Ast.Set_global (g, Ast.Lit (Value.Int 2))) globals
  in
  { Ast.name = "p"; params = []; body = inits @ body }

let print_block b = Pp.proc_to_string (wrap_body b)

let observe_proc prog name args =
  try Ok (Helpers.observe prog name args) with e -> Error (Printexc.to_string e)

let behaviours_agree p1 n1 p2 n2 args =
  match observe_proc p1 n1 args, observe_proc p2 n2 args with
  | Ok a, Ok b -> a = b
  | Error _, Error _ -> true (* both fail the same way is acceptable *)
  | Ok _, Error e -> QCheck2.Test.fail_reportf "only transformed failed: %s" e
  | Error e, Ok _ -> QCheck2.Test.fail_reportf "only original failed: %s" e

let args = [ Value.Int 3; Value.Int (-1) ]

let prop_optimize_preserves =
  QCheck2.Test.make ~name:"optimize preserves semantics" ~count:300
    ~print:print_block gen_block (fun body ->
      let p = wrap_body body in
      let p' = { (Pipeline.optimize_proc [ p ] p) with Ast.name = "q" } in
      behaviours_agree [ p ] "p" [ p' ] "q" args)

(* The engines agree on errors too, exception text included.  The
   generator sometimes leaves a variable uninitialized and sometimes
   calls a primitive with the wrong number of arguments. *)
let gen_compile_case : (string option * Ast.block) QCheck2.Gen.t =
  let open QCheck2.Gen in
  pair
    (frequency [ (2, return None); (1, map Option.some (oneofl int_vars)) ])
    (gen_block_of ~wrong_arity:true)

let prop_compile_agrees_with_interp =
  QCheck2.Test.make ~name:"compile agrees with interp" ~count:300
    ~print:(fun (drop, body) -> Pp.proc_to_string (wrap_body ?drop body))
    gen_compile_case (fun (drop, body) ->
      let p = wrap_body ?drop body in
      let interp_result = observe_proc [ p ] "p" args in
      let compiled_result =
        try Ok (Helpers.observe_compiled [ p ] "p" args)
        with e -> Error (Printexc.to_string e)
      in
      match interp_result, compiled_result with
      | Ok a, Ok b -> a = b
      | Error a, Error b ->
        a = b || QCheck2.Test.fail_reportf "interp raised %s, compiled raised %s" a b
      | Ok _, Error e -> QCheck2.Test.fail_reportf "only compiled failed: %s" e
      | Error e, Ok _ -> QCheck2.Test.fail_reportf "only interp failed: %s" e)

let prop_dce_never_grows =
  QCheck2.Test.make ~name:"dce never grows code" ~count:300 ~print:print_block
    gen_block (fun body ->
      let p = wrap_body body in
      let b' = Opt_dce.pass [ p ] p.Ast.body in
      Analysis.block_size b' <= Analysis.block_size p.Ast.body)

let prop_deret_removes_all_returns =
  QCheck2.Test.make ~name:"deret removes all returns" ~count:300 ~print:print_block
    gen_block (fun body ->
      not (Rewrite.contains_return (Deret.remove_returns body)))

(* --- event graph invariants ------------------------------------------- *)

let gen_event_seq : (string * Ast.mode) list QCheck2.Gen.t =
  let open QCheck2.Gen in
  list_size (int_range 2 60)
    (pair
       (map (fun i -> Printf.sprintf "E%d" i) (int_range 0 5))
       (oneofl [ Ast.Sync; Ast.Async; Ast.Timed 5 ]))

let print_seq s = String.concat " " (List.map fst s)

let prop_graph_total_weight =
  QCheck2.Test.make ~name:"graph total weight = n-1" ~count:500 ~print:print_seq
    gen_event_seq (fun seq ->
      Event_graph.total_weight (Event_graph.build seq) = List.length seq - 1)

let prop_reduce_only_drops =
  QCheck2.Test.make ~name:"reduction keeps only edges >= W" ~count:500
    ~print:print_seq gen_event_seq (fun seq ->
      let g = Event_graph.build seq in
      let r = Reduce.reduce g ~threshold:3 in
      List.for_all (fun (e : Event_graph.edge) -> e.Event_graph.weight >= 3)
        (Event_graph.edges r)
      && List.for_all
           (fun (e : Event_graph.edge) ->
             match Event_graph.find_edge g ~src:e.Event_graph.src ~dst:e.Event_graph.dst with
             | Some orig -> orig.Event_graph.weight = e.Event_graph.weight
             | None -> false)
           (Event_graph.edges r))

let prop_chains_are_chains =
  QCheck2.Test.make ~name:"found chains satisfy chain predicate" ~count:500
    ~print:print_seq gen_event_seq (fun seq ->
      let g = Event_graph.build seq in
      List.for_all (Chains.is_chain g) (Chains.find g))

(* --- end-to-end runtime equivalence ----------------------------------- *)

(* A random configuration: 4 events E0..E3; each event gets 1-3 handlers;
   each handler does arithmetic, emits, updates a global, and may raise a
   higher-numbered event (sync or async). *)
type config = {
  handler_specs : (int * int * bool * int option) list list;
      (* per event: (seed, arith, raises_sync?, target) *)
  raises : (int * int) list;  (* workload: (event, arg) *)
  rebind_at : int option;
}

let gen_config : config QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_handler ev =
    map3
      (fun seed arith target ->
        let target =
          match target with
          | Some t when t > ev && t <= 3 -> Some t
          | _ -> None
        in
        (seed, arith, true, target))
      (int_range 0 9) (int_range 1 5)
      (opt (int_range 0 3))
  in
  let gen_handlers ev = list_size (int_range 1 3) (gen_handler ev) in
  map3
    (fun specs raises rebind_at ->
      { handler_specs = specs; raises; rebind_at })
    (flatten_l [ gen_handlers 0; gen_handlers 1; gen_handlers 2; gen_handlers 3 ])
    (list_size (int_range 1 25) (pair (int_range 0 3) (int_range (-10) 10)))
    (opt (int_range 0 20))

let print_config c =
  Printf.sprintf "events=%d raises=%d rebind=%s"
    (List.length c.handler_specs) (List.length c.raises)
    (match c.rebind_at with None -> "no" | Some i -> string_of_int i)

let build_runtime (c : config) : Runtime.t * (unit -> unit) list =
  let buf = Buffer.create 256 in
  let handler_names = ref [] in
  List.iteri
    (fun ev specs ->
      List.iteri
        (fun i (seed, arith, sync, target) ->
          let name = Printf.sprintf "h_%d_%d" ev i in
          handler_names := ((ev, i), name) :: !handler_names;
          let raise_stmt =
            match target with
            | Some t ->
              Printf.sprintf "raise %s E%d(x + %d);"
                (if sync then "sync" else "async")
                t seed
            | None -> ""
          in
          Buffer.add_string buf
            (Printf.sprintf
               "handler %s(x) { let a = x * %d + %d; global sum = global sum + a; emit(\"%s\", a); %s }\n"
               name arith seed name raise_stmt))
        specs)
    c.handler_specs;
  let rt = Runtime.create ~program:(Parse.program (Buffer.contents buf)) () in
  Runtime.set_global rt "sum" (Value.Int 0);
  List.iteri
    (fun ev specs ->
      List.iteri
        (fun i _ ->
          Runtime.bind rt ~event:(Printf.sprintf "E%d" ev)
            (Handler.hir' (Printf.sprintf "h_%d_%d" ev i)))
        specs)
    c.handler_specs;
  let steps =
    List.mapi
      (fun step (ev, arg) () ->
        (match c.rebind_at with
         | Some r when r = step ->
           (* rebind mid-workload: unbind one handler of E1 if present *)
           ignore (Runtime.unbind rt ~event:"E1" ~handler:"h_1_0")
         | _ -> ());
        Runtime.raise_sync rt (Printf.sprintf "E%d" ev) [ Value.Int arg ];
        Runtime.run rt)
      c.raises
  in
  (rt, steps)

let run_config (c : config) ~strategy : (string * Value.t list) list * Value.t =
  let rt, steps = build_runtime c in
  (match strategy with
   | None -> ()
   | Some strategy ->
     let plan =
       {
         Plan.empty with
         Plan.actions =
           [ Plan.Merge_chain { events = [ "E0"; "E1"; "E2"; "E3" ]; strategy } ];
       }
     in
     ignore (Driver.apply rt plan));
  List.iter (fun step -> step ()) steps;
  (Runtime.emits rt, Runtime.get_global rt "sum")

let equivalence_prop name strategy =
  QCheck2.Test.make ~name ~count:120 ~print:print_config gen_config (fun c ->
      let e1, s1 = run_config c ~strategy:None in
      let e2, s2 = run_config c ~strategy:(Some strategy) in
      if e1 <> e2 then QCheck2.Test.fail_reportf "emit logs differ"
      else if not (Value.equal s1 s2) then
        QCheck2.Test.fail_reportf "global sums differ: %s vs %s" (Value.to_string s1)
          (Value.to_string s2)
      else true)

let prop_runtime_equivalence =
  equivalence_prop "optimized runtime equivalent (monolithic, incl. rebinding)"
    Plan.Monolithic

let prop_runtime_equivalence_partitioned =
  equivalence_prop "optimized runtime equivalent (partitioned, incl. rebinding)"
    Plan.Partitioned

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_optimize_preserves;
      prop_compile_agrees_with_interp;
      prop_dce_never_grows;
      prop_deret_removes_all_returns;
      prop_graph_total_weight;
      prop_reduce_only_drops;
      prop_chains_are_chains;
      prop_runtime_equivalence;
      prop_runtime_equivalence_partitioned;
    ]
