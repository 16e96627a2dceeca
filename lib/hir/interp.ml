(* Tree-walking interpreter for HIR.

   This is the *unoptimized* execution engine: each handler invocation
   builds a fresh environment, looks variables up by name, and charges the
   host one tick per AST node visited.  The optimizer's payoff is measured
   against this baseline, mirroring the paper's original (indirect,
   marshaled, per-handler) execution path. *)

open Ast

(* The global store: the shared state of one runtime's handlers.  It is
   append-only: a name gets a slot on first use and keeps it, so
   compiled code can resolve each [global g] site to a slot once per
   store.  A slot never set holds [unset]; reading it asks the store's
   [unbound] function, which raises or supplies a default. *)
module Globals = struct
  type t = {
    index : (string, int) Hashtbl.t;
    mutable names : string array;
    mutable values : Value.t array;
    mutable count : int;
    unbound : string -> Value.t;
  }

  (* Physically unique: built at run time, never handed out. *)
  let unset = Value.Bytes (Bytes.create 0)

  let create ~unbound () =
    {
      index = Hashtbl.create 16;
      names = Array.make 16 "";
      values = Array.make 16 unset;
      count = 0;
      unbound;
    }

  let slot t name =
    match Hashtbl.find t.index name with
    | i -> i
    | exception Not_found ->
      let i = t.count in
      if i = Array.length t.values then begin
        let n = 2 * i in
        let names = Array.make n "" and values = Array.make n unset in
        Array.blit t.names 0 names 0 i;
        Array.blit t.values 0 values 0 i;
        t.names <- names;
        t.values <- values
      end;
      t.names.(i) <- name;
      t.count <- i + 1;
      Hashtbl.add t.index name i;
      i

  let get t i =
    let v = t.values.(i) in
    if v == unset then t.unbound t.names.(i) else v

  let set t i v = t.values.(i) <- v

  let find t name =
    match Hashtbl.find t.index name with
    | i -> get t i
    | exception Not_found -> t.unbound name

  let replace t name v = set t (slot t name) v

  let fold f t acc =
    let acc = ref acc in
    for i = 0 to t.count - 1 do
      let v = t.values.(i) in
      if v != unset then acc := f t.names.(i) v !acc
    done;
    !acc
end

(* Services the interpreter needs from its embedding (the event runtime or
   a test harness). *)
type host = {
  raise_event : string -> mode -> Value.t list -> unit;
  globals : Globals.t;
  lock : int -> unit;  (* charge n global reads or writes *)
  emit : string -> Value.t list -> unit;
  tick : int -> unit;   (* per-AST-node cost; engine-dependent *)
  work : int -> unit;   (* intrinsic primitive work; engine-independent *)
}

let null_host () =
  {
    raise_event = (fun _ _ _ -> ());
    globals =
      Globals.create ~unbound:(fun g -> Value.type_error "unbound global %s" g) ();
    lock = ignore;
    emit = (fun _ _ -> ());
    tick = ignore;
    work = ignore;
  }

exception Return_value of Value.t
exception Unbound_variable of string

(* Runaway recursion in handler code must surface as a catchable HIR
   error, not blow the OCaml stack. *)
let max_call_depth = 2_000

exception Call_depth_exceeded

(* Domain-local: call depth tracks one execution stack, and broker
   shards interpret handlers on separate domains concurrently. *)
let call_depth = Domain.DLS.new_key (fun () -> ref 0)

let enter_call () =
  let depth = Domain.DLS.get call_depth in
  if !depth >= max_call_depth then raise Call_depth_exceeded;
  incr depth;
  depth

type frame = {
  env : (string, Value.t) Hashtbl.t;
  args : Value.t array;
}

let lookup frame x =
  match Hashtbl.find_opt frame.env x with
  | Some v -> v
  | None -> raise (Unbound_variable x)

(* Comparison results are the two shared constants, never a fresh box. *)
let bool b = if b then Value.Bool true else Value.Bool false

let rec eval_binop op a b =
  let open Value in
  match op, a, b with
  | Add, Int x, Int y -> Int (x + y)
  | Sub, Int x, Int y -> Int (x - y)
  | Mul, Int x, Int y -> Int (x * y)
  | Div, Int x, Int y ->
    if y = 0 then Value.type_error "division by zero" else Int (x / y)
  | Mod, Int x, Int y ->
    if y = 0 then Value.type_error "modulo by zero" else Int (x mod y)
  | Add, Float x, Float y -> Float (x +. y)
  | Sub, Float x, Float y -> Float (x -. y)
  | Mul, Float x, Float y -> Float (x *. y)
  | Div, Float x, Float y -> Float (x /. y)
  | (Add | Sub | Mul | Div), Float x, Int y ->
    eval_arith_float op x (float_of_int y)
  | (Add | Sub | Mul | Div), Int x, Float y ->
    eval_arith_float op (float_of_int x) y
  | Eq, a, b -> bool (Value.equal a b)
  | Ne, a, b -> bool (not (Value.equal a b))
  | Lt, Int x, Int y -> bool (x < y)
  | Le, Int x, Int y -> bool (x <= y)
  | Gt, Int x, Int y -> bool (x > y)
  | Ge, Int x, Int y -> bool (x >= y)
  | Lt, Float x, Float y -> bool (x < y)
  | Le, Float x, Float y -> bool (x <= y)
  | Gt, Float x, Float y -> bool (x > y)
  | Ge, Float x, Float y -> bool (x >= y)
  | And, Bool x, Bool y -> bool (x && y)
  | Or, Bool x, Bool y -> bool (x || y)
  | Concat, Str x, Str y -> Str (x ^ y)
  | Concat, Bytes x, Bytes y -> Bytes (Bytes.cat x y)
  | op, a, b ->
    Value.type_error "bad operands for %s: %s, %s" (binop_to_string op)
      (Value.to_string a) (Value.to_string b)

and eval_arith_float op x y =
  let open Value in
  match op with
  | Add -> Float (x +. y)
  | Sub -> Float (x -. y)
  | Mul -> Float (x *. y)
  | Div -> Float (x /. y)
  | _ -> assert false

let eval_unop op v =
  let open Value in
  match op, v with
  | Neg, Int n -> Int (-n)
  | Neg, Float f -> Float (-.f)
  | Not, Bool b -> bool (not b)
  | op, v ->
    Value.type_error "bad operand for %s: %s" (unop_to_string op) (Value.to_string v)

let rec eval_expr (host : host) (prog : program) (frame : frame) (e : expr) : Value.t =
  host.tick 1;
  match e with
  | Lit v -> v
  | Var x -> lookup frame x
  | Global g ->
    host.lock 1;
    Globals.find host.globals g
  | Arg i ->
    if i < 0 || i >= Array.length frame.args then
      Value.type_error "arg %d out of range (%d args)" i (Array.length frame.args)
    else frame.args.(i)
  | Binop (And, a, b) ->
    (* short-circuit *)
    if Value.as_bool (eval_expr host prog frame a) then eval_expr host prog frame b
    else Value.Bool false
  | Binop (Or, a, b) ->
    if Value.as_bool (eval_expr host prog frame a) then Value.Bool true
    else eval_expr host prog frame b
  | Binop (op, a, b) ->
    let va = eval_expr host prog frame a in
    let vb = eval_expr host prog frame b in
    eval_binop op va vb
  | Unop (op, a) -> eval_unop op (eval_expr host prog frame a)
  | Call (f, args) ->
    let vs = List.map (eval_expr host prog frame) args in
    (match proc_by_name prog f with
     | Some callee -> call_proc host prog callee vs
     | None ->
       let p = Prim.find f in
       let w = Prim.work_of p vs in
       if w > 0 then host.work w;
       (match p.Prim.arity with
        | Some n when List.length vs <> n ->
          Value.type_error "%s expects %d arguments, got %d" f n (List.length vs)
        | Some _ | None -> ());
       p.Prim.fn vs)

and exec_stmt host prog frame (s : stmt) : unit =
  host.tick 1;
  match s with
  | Let (x, e) | Assign (x, e) ->
    Hashtbl.replace frame.env x (eval_expr host prog frame e)
  | Set_global (g, e) ->
    let v = eval_expr host prog frame e in
    host.lock 1;
    Globals.replace host.globals g v
  | If (c, t, e) ->
    if Value.truthy (eval_expr host prog frame c) then exec_block host prog frame t
    else exec_block host prog frame e
  | While (c, b) ->
    while Value.truthy (eval_expr host prog frame c) do
      exec_block host prog frame b
    done
  | Expr e -> ignore (eval_expr host prog frame e)
  | Raise { event; mode; args } ->
    let vs = List.map (eval_expr host prog frame) args in
    host.raise_event event mode vs
  | Emit (tag, args) ->
    let vs = List.map (eval_expr host prog frame) args in
    host.emit tag vs
  | Return None -> raise (Return_value Value.Unit)
  | Return (Some e) -> raise (Return_value (eval_expr host prog frame e))

and exec_block host prog frame b = List.iter (exec_stmt host prog frame) b

and call_proc host prog (p : proc) (args : Value.t list) : Value.t =
  let depth = enter_call () in
  let frame = { env = Hashtbl.create 16; args = Array.of_list args } in
  let rec bind params args =
    match params, args with
    | [], _ -> ()
    | x :: ps, v :: vs ->
      Hashtbl.replace frame.env x v;
      bind ps vs
    | x :: ps, [] ->
      (* missing arguments default to Unit, as in the paper's variadic
         handler invocation convention *)
      Hashtbl.replace frame.env x Value.Unit;
      bind ps []
  in
  bind p.params args;
  match exec_block host prog frame p.body with
  | () ->
    decr depth;
    Value.Unit
  | exception Return_value v ->
    decr depth;
    v
  | exception e ->
    decr depth;
    raise e

(* Run a named procedure of [prog]. *)
let run ?(host = null_host ()) (prog : program) (name : string) (args : Value.t list) :
    Value.t =
  match proc_by_name prog name with
  | Some p -> call_proc host prog p args
  | None -> Value.type_error "unknown procedure %s" name
