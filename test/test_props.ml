(* Property-based tests (qcheck):

   1. HIR semantics preservation: for random well-formed programs,
      [optimize p] behaves like [interp p]; [compile p] behaves exactly
      like it and charges the same units at every emit, raise, exit and
      exception.
   2. Event-graph invariants of the GraphBuilder algorithm.
   3. End-to-end: for random event configurations, the optimized runtime
      is observationally equivalent to the generic one, including under
      rebinding. *)

open Podopt

(* --- random HIR programs ---------------------------------------------- *)

let int_vars = [ "v0"; "v1"; "v2"; "v3" ]
let globals = [ "g0"; "g1" ]

(* A primitive with a work function, so that the engine property also
   compares the engines' work charges. *)
let () =
  Prim.register "spin" ~arity:1
    ~work:(function [ Value.Int n ] -> 1 + abs n | _ -> 0)
    (function
      | [ Value.Int n ] -> Value.Int (n / 2)
      | _ -> Value.type_error "spin expects an int")

(* [engine] adds nodes that only the engine property draws, since the
   optimizer may drop a dead node that would have failed: a rare call of
   a primitive with the wrong number of arguments, [/] and [%] (zero
   divisors included), the work primitive [spin], raises in every mode,
   and [&&] and [||] conditions.  [calls] also draws calls of the helper
   [func f(v0, v1)], whose own body draws none. *)
let gen_int_expr_of ~engine ~calls : Ast.expr QCheck2.Gen.t =
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
            let binop ops = map2 (fun op (a, b) -> Ast.Binop (op, a, b)) (oneofl ops) in
            let well_formed =
              [
                map (fun i -> Ast.Lit (Value.Int i)) (int_range (-20) 20);
                binop [ Ast.Add; Ast.Sub; Ast.Mul ] (pair (self (n / 2)) (self (n / 2)));
                map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1));
                map2 (fun f a -> Ast.Call (f, [ a ])) (oneofl [ "abs" ]) (self (n - 1));
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
            let engine_only =
              [
                (1, miscounted);
                (3, binop [ Ast.Div; Ast.Mod ] (pair (self (n / 2)) (self (n / 2))));
                (3, map (fun a -> Ast.Call ("spin", [ a ])) (self (n - 1)));
              ]
            in
            let helper =
              [ (3, map2 (fun a b -> Ast.Call ("f", [ a; b ])) (self (n / 2)) (self (n / 2))) ]
            in
            frequency
              (List.map (fun g -> (10, g)) well_formed
              @ (if engine then engine_only else [])
              @ if calls then helper else []))
        (min n 6))

let gen_int_expr = gen_int_expr_of ~engine:false ~calls:false

let gen_cond_of ~engine ~calls : Ast.expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  let e = gen_int_expr_of ~engine ~calls in
  let compare =
    map2
      (fun op (a, b) -> Ast.Binop (op, a, b))
      (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
      (pair e e)
  in
  if engine then
    frequency
      [
        (4, compare);
        (1, map2 (fun a b -> Ast.Binop (Ast.And, a, b)) compare compare);
        (1, map2 (fun a b -> Ast.Binop (Ast.Or, a, b)) compare compare);
      ]
  else compare

let counter = ref 0

let gen_block_of ~engine ~calls : Ast.block QCheck2.Gen.t =
  let open QCheck2.Gen in
  let gen_int_expr = gen_int_expr_of ~engine ~calls in
  let gen_cond = gen_cond_of ~engine ~calls in
  let gen_raise =
    map2
      (fun mode e -> Ast.Raise { event = "E"; mode; args = [ e ] })
      (oneof
         [ return Ast.Sync; return Ast.Async; map (fun d -> Ast.Timed d) (int_range 0 9) ])
      gen_int_expr
  in
  let gen_stmt self depth =
    let leaf =
      [
        map2 (fun v e -> Ast.Let (v, e)) (oneofl int_vars) gen_int_expr;
        map2 (fun v e -> Ast.Assign (v, e)) (oneofl int_vars) gen_int_expr;
        map2 (fun g e -> Ast.Set_global (g, e)) (oneofl globals) gen_int_expr;
        map (fun e -> Ast.Emit ("out", [ e ])) gen_int_expr;
        return (Ast.Return None);
      ]
      @ if engine then [ gen_raise ] else []
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

let gen_block = gen_block_of ~engine:false ~calls:false

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

(* A program for the engine property: [p], which sometimes leaves a
   variable uninitialized, and the helper [f] it may call. *)
let gen_engine_program : Ast.program QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* drop = frequency [ (2, return None); (1, map Option.some (oneofl int_vars)) ] in
  let* body = gen_block_of ~engine:true ~calls:true in
  let* f_body = gen_block_of ~engine:true ~calls:false in
  let+ f_ret = gen_int_expr_of ~engine:true ~calls:false in
  let f =
    {
      Ast.name = "f";
      params = [ "v0"; "v1" ];
      body =
        [ Ast.Let ("v2", Ast.Lit (Value.Int 1)); Ast.Let ("v3", Ast.Lit (Value.Int 1)) ]
        @ f_body
        @ [ Ast.Return (Some f_ret) ];
    }
  in
  [ wrap_body ?drop body; f ]

(* The engines agree at every point where an event runtime can read its
   clock: each emit, raise, exit and exception carries the same node
   ticks, global accesses and work units, and the same value or
   exception text. *)
let prop_compile_agrees_with_interp =
  QCheck2.Test.make ~name:"compile agrees with interp" ~count:300
    ~print:Pp.program_to_string gen_engine_program (fun prog ->
      let c = Compile.proc prog "p" in
      let interp = Helpers.stamped (fun host -> Interp.run ~host prog "p" args) in
      let compiled = Helpers.stamped (fun host -> c host args) in
      interp = compiled
      || QCheck2.Test.fail_reportf "interp:@.%s@.compiled:@.%s" (Helpers.show_stamped interp)
           (Helpers.show_stamped compiled))

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
