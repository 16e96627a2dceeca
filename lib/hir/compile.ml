(* Compilation of HIR to OCaml closures.

   This is the "code generation" half of the paper's pipeline: once the
   optimizer has produced a merged, specialized super-handler body, that
   body is compiled so that running it no longer pays interpretation
   overhead.  Locals are resolved to the slots of a register frame at
   compile time, and each [global g] site resolves its name to a slot of
   the host's global store once per store.  Control flow becomes direct
   OCaml control flow, conditions evaluate to native booleans, and
   literals are preallocated.  A call allocates its frame; beyond that,
   only the values the body computes and the argument lists it passes
   are allocated.

   The generated closure charges one tick per executed node and one lock
   per global access, as the interpreter does, so the deterministic cost
   model can price compiled execution differently from interpreted
   execution.  It does not call the host for each: the frame counts them
   and flushes the counts, one [tick n] and one [lock k], before each
   raise, emit or user call and on every exit of the body.  Those are the
   only points where the clock can be read during or after the body (a
   primitive sees only values, and its [work] only adds), and charges
   only add, so the clock reads the same at each of them.  The wall-clock
   speedup comes from the removed host calls, name lookups, closure and
   list allocations, and match dispatch. *)

open Ast
module Globals = Interp.Globals

(* A register frame: one slot per local of the procedure. *)
type frame = {
  slots : Value.t array;
  args : Value.t list;
  host : Interp.host;
  mutable ret : Value.t;  (* set by [return] just before it unwinds *)
  mutable ticks : int;  (* node ticks not yet charged to the host *)
  mutable locks : int;  (* global accesses not yet charged *)
}

(* Charge the counted ticks and accesses; called wherever the clock can
   next be read. *)
let flush fr =
  if fr.ticks > 0 then begin
    fr.host.tick fr.ticks;
    fr.ticks <- 0
  end;
  if fr.locks > 0 then begin
    fr.host.lock fr.locks;
    fr.locks <- 0
  end

type compiled_proc = Interp.host -> Value.t list -> Value.t

(* Per-program compilation context: lazily compiled user procedures, so
   that user calls and recursion work. *)
type ctx = {
  prog : program;
  cache : (string, compiled_proc) Hashtbl.t;
}

(* [return] stores its value in the frame and unwinds with this constant
   exception, so returning allocates nothing. *)
exception Return

(* The initial value of a local that is not a parameter.  Physically
   unique and never handed out: reading it raises [Unbound_variable],
   as the interpreter does for a name it has never bound. *)
let unassigned = Value.Bytes (Bytes.create 0)

(* The slot a [global g] site last resolved, with the store it belongs
   to.  The pair is immutable and replaced whole, so a site run against
   another store re-resolves and never reads a torn pair. *)
type site = { store : Globals.t; slot : int }

let no_site = { store = Globals.create ~unbound:(fun _ -> Value.Unit) (); slot = 0 }

let[@inline] site_slot cache g (st : Globals.t) =
  let s = !cache in
  if s.store == st then s.slot
  else begin
    let slot = Globals.slot st g in
    cache := { store = st; slot };
    slot
  end

let slot_map (p : proc) : (string, int) Hashtbl.t =
  let slots = Hashtbl.create 16 in
  let next = ref 0 in
  let add x =
    if not (Hashtbl.mem slots x) then begin
      Hashtbl.add slots x !next;
      incr next
    end
  in
  List.iter add p.params;
  let rec scan_block b = List.iter scan_stmt b
  and scan_stmt = function
    | Let (x, _) | Assign (x, _) -> add x
    | If (_, t, e) ->
      scan_block t;
      scan_block e
    | While (_, b) -> scan_block b
    | Set_global _ | Expr _ | Raise _ | Emit _ | Return _ -> ()
  in
  scan_block p.body;
  slots

(* Bind parameter slots from the argument list; missing arguments read
   [()], the interpreter's padding convention. *)
let rec bind_params slots params i args =
  if i < Array.length params then
    match args with
    | v :: rest ->
      slots.(params.(i)) <- v;
      bind_params slots params (i + 1) rest
    | [] ->
      slots.(params.(i)) <- Value.Unit;
      bind_params slots params (i + 1) []

(* [arg i], counting [j] down the argument list [all]. *)
let rec nth_arg all i j = function
  | v :: rest -> if j = 0 then v else nth_arg all i (j - 1) rest
  | [] -> Value.type_error "arg %d out of range (%d args)" i (List.length all)

(* Evaluate argument expressions left to right into a list, one cons
   per argument. *)
let rec args_of = function
  | [] -> fun _ -> []
  | [ c ] -> fun fr -> [ c fr ]
  | c :: rest ->
    let crest = args_of rest in
    fun fr ->
      let v = c fr in
      v :: crest fr

let rec compile_expr (ctx : ctx) slots (e : expr) : frame -> Value.t =
  match e with
  | Lit v ->
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      v
  | Var x ->
    (match Hashtbl.find_opt slots x with
     | Some i ->
       fun fr ->
         fr.ticks <- fr.ticks + 1;
         let v = fr.slots.(i) in
         if v == unassigned then raise (Interp.Unbound_variable x) else v
     | None ->
       fun fr ->
         fr.ticks <- fr.ticks + 1;
         raise (Interp.Unbound_variable x))
  | Global g ->
    let cache = ref no_site in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      fr.locks <- fr.locks + 1;
      let st = fr.host.globals in
      Globals.get st (site_slot cache g st)
  | Arg i ->
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      nth_arg fr.args i i fr.args
  | Binop (And, a, b) ->
    let ca = compile_expr ctx slots a in
    let cb = compile_expr ctx slots b in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      if Value.as_bool (ca fr) then cb fr else Value.Bool false
  | Binop (Or, a, b) ->
    let ca = compile_expr ctx slots a in
    let cb = compile_expr ctx slots b in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      if Value.as_bool (ca fr) then Value.Bool true else cb fr
  | Binop (op, a, b) ->
    let ca = compile_expr ctx slots a in
    let cb = compile_expr ctx slots b in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      let va = ca fr in
      let vb = cb fr in
      (match op, va, vb with
       | Add, Value.Int x, Value.Int y -> Value.Int (x + y)
       | Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
       | Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
       | _ -> Interp.eval_binop op va vb)
  | Unop (op, a) ->
    let ca = compile_expr ctx slots a in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      Interp.eval_unop op (ca fr)
  | Call (f, args) ->
    let cargs = args_of (List.map (compile_expr ctx slots) args) in
    (match proc_by_name ctx.prog f with
     | Some _ ->
       fun fr ->
         fr.ticks <- fr.ticks + 1;
         let vs = cargs fr in
         flush fr;
         (compiled_proc ctx f) fr.host vs
     | None ->
       let prim = Prim.find f in
       let n = List.length args in
       (match prim.Prim.arity, prim.Prim.work with
        | Some k, _ when k <> n ->
          (* the interpreter's order: arguments, their work, then the
             arity error *)
          fun fr ->
            fr.ticks <- fr.ticks + 1;
            let w = Prim.work_of prim (cargs fr) in
            if w > 0 then fr.host.work w;
            Value.type_error "%s expects %d arguments, got %d" f k n
        | _, None ->
          let fn = prim.Prim.fn in
          fun fr ->
            fr.ticks <- fr.ticks + 1;
            fn (cargs fr)
        | _, Some _ ->
          fun fr ->
            fr.ticks <- fr.ticks + 1;
            let vs = cargs fr in
            let w = Prim.work_of prim vs in
            if w > 0 then fr.host.work w;
            prim.Prim.fn vs))

(* A condition, evaluated to a native [bool] with the same ticks,
   results and errors as [Value.truthy] of the expression. *)
and compile_cond ctx slots (e : expr) : frame -> bool =
  match e with
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne) as op, a, b) ->
    let ca = compile_expr ctx slots a in
    let cb = compile_expr ctx slots b in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      let va = ca fr in
      let vb = cb fr in
      (match op, va, vb with
       | Eq, _, _ -> Value.equal va vb
       | Ne, _, _ -> not (Value.equal va vb)
       | Lt, Value.Int x, Value.Int y -> x < y
       | Le, Value.Int x, Value.Int y -> x <= y
       | Gt, Value.Int x, Value.Int y -> x > y
       | Ge, Value.Int x, Value.Int y -> x >= y
       | _ -> Value.truthy (Interp.eval_binop op va vb))
  | e ->
    let ce = compile_expr ctx slots e in
    fun fr -> Value.truthy (ce fr)

and compile_stmt ctx slots (s : stmt) : frame -> unit =
  match s with
  | Let (x, e) | Assign (x, e) ->
    let i = Hashtbl.find slots x in
    let ce = compile_expr ctx slots e in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      fr.slots.(i) <- ce fr
  | Set_global (g, e) ->
    let ce = compile_expr ctx slots e in
    let cache = ref no_site in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      let v = ce fr in
      fr.locks <- fr.locks + 1;
      let st = fr.host.globals in
      Globals.set st (site_slot cache g st) v
  | If (c, t, e) ->
    let cc = compile_cond ctx slots c in
    let ct = compile_block ctx slots t in
    let ce = compile_block ctx slots e in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      if cc fr then ct fr else ce fr
  | While (c, b) ->
    let cc = compile_cond ctx slots c in
    let cb = compile_block ctx slots b in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      while cc fr do
        cb fr
      done
  | Expr e ->
    let ce = compile_expr ctx slots e in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      ignore (ce fr)
  | Raise { event; mode; args } ->
    let cargs = args_of (List.map (compile_expr ctx slots) args) in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      let vs = cargs fr in
      flush fr;
      fr.host.raise_event event mode vs
  | Emit (tag, args) ->
    let cargs = args_of (List.map (compile_expr ctx slots) args) in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      let vs = cargs fr in
      flush fr;
      fr.host.emit tag vs
  | Return None ->
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      fr.ret <- Value.Unit;
      raise_notrace Return
  | Return (Some e) ->
    let ce = compile_expr ctx slots e in
    fun fr ->
      fr.ticks <- fr.ticks + 1;
      fr.ret <- ce fr;
      raise_notrace Return

and compile_block ctx slots (b : block) : frame -> unit =
  match List.map (compile_stmt ctx slots) b with
  | [ c ] -> c
  | cs ->
    let cs = Array.of_list cs in
    fun fr ->
      for i = 0 to Array.length cs - 1 do
        cs.(i) fr
      done

and compiled_proc (ctx : ctx) (name : string) : compiled_proc =
  match Hashtbl.find ctx.cache name with
  | c -> c
  | exception Not_found ->
    (match proc_by_name ctx.prog name with
     | None -> Value.type_error "unknown procedure %s" name
     | Some p ->
       (* Insert a forward reference first so recursion terminates. *)
       let fwd = ref (fun _ _ -> assert false) in
       Hashtbl.add ctx.cache name (fun host args -> !fwd host args);
       let slots = slot_map p in
       let nslots = Hashtbl.length slots in
       let cbody = compile_block ctx slots p.body in
       let params = Array.of_list (List.map (Hashtbl.find slots) p.params) in
       let run host args =
         let fr =
           { slots = Array.make nslots unassigned; args; host; ret = Value.Unit;
             ticks = 0; locks = 0 }
         in
         bind_params fr.slots params 0 args;
         let depth = Interp.enter_call () in
         match cbody fr with
         | () ->
           decr depth;
           flush fr;
           Value.Unit
         | exception Return ->
           decr depth;
           flush fr;
           fr.ret
         | exception e ->
           decr depth;
           flush fr;
           raise e
       in
       fwd := run;
       Hashtbl.replace ctx.cache name run;
       run)

let make_ctx (prog : program) : ctx = { prog; cache = Hashtbl.create 16 }

(* Compile one procedure of a program. *)
let proc (prog : program) (name : string) : compiled_proc =
  compiled_proc (make_ctx prog) name
