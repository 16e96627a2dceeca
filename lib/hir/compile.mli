(** Compilation of HIR to OCaml closures — the "code generation" half of
    the paper's pipeline.

    Locals are resolved to the slots of a register frame at compile
    time, and each [global g] site resolves its name to a slot of the
    host's {!Interp.Globals} store once per store.  Control flow becomes
    direct OCaml control flow, conditions evaluate to native booleans,
    and literals are preallocated; a call allocates its frame, and
    otherwise only the values the body computes and the argument lists
    it passes.  The generated closure charges the host the
    interpreter's node ticks and global accesses, so the deterministic
    cost model can price compiled execution differently from
    interpreted execution, but it counts them in the frame and charges
    them with one [tick] and one [lock] call before each raise, emit and
    user call and on every exit: the points where the clock can be
    read.  The wall-clock speedup comes from the removed host calls,
    name lookups, closure and list allocations, and match dispatch.

    Results, emits, raises, globals, errors and the units charged at
    each of those points agree with {!Interp}: a read of a
    local never assigned raises {!Interp.Unbound_variable}, and a
    primitive called with the wrong number of arguments raises the
    interpreter's {!Value.Type_error} after evaluating its arguments. *)

(** A compiled procedure: supply a host and the argument vector. *)
type compiled_proc = Interp.host -> Value.t list -> Value.t

(** [proc prog name] compiles procedure [name] of [prog] (callees are
    compiled lazily on first call; recursion is supported).  Raises
    {!Value.Type_error} if [name] is not in [prog]. *)
val proc : Ast.program -> string -> compiled_proc
