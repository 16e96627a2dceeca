(* Cost model for the deterministic measurement mode.

   Each constant prices one of the overhead sources the paper identifies
   (Sec. 1 and 3.2): registry lookup and locking, argument marshaling and
   unmarshaling, indirect handler invocation, and interpretive execution
   of handler code versus compiled super-handler code.  The defaults are
   calibrated so the reproduced tables match the *shape* of the paper's
   results (e.g. 33-39% handler-time reduction for the video player,
   73-88% per-event improvements); absolute values are abstract units. *)

type model = {
  registry_lookup : int;  (* find the handler list for an event *)
  lock : int;             (* state-maintenance / synchronization cost *)
  lock_merged : int;      (* residual per-access cost inside a merged
                             super-handler, which can hold the state lock
                             across the whole merged body (the paper's
                             "state maintenance costs" elimination) *)
  marshal_base : int;     (* fixed cost of building an argument buffer *)
  marshal_per_byte : int;
  unmarshal_base : int;   (* per-handler argument unpacking *)
  unmarshal_per_byte : int;
  indirect_call : int;    (* call through a function pointer *)
  direct_call : int;      (* direct call to a known super-handler *)
  guard_check : int;      (* binding-version comparison *)
  enqueue : int;          (* scheduling an asynchronous activation *)
  interp_step : int;      (* per-AST-node cost of interpreted handlers *)
  compiled_step : int;    (* per-AST-node cost of compiled handlers *)
}

let default =
  {
    registry_lookup = 12;
    lock = 18;
    lock_merged = 2;
    marshal_base = 30;
    marshal_per_byte = 1;
    unmarshal_base = 24;
    unmarshal_per_byte = 1;
    indirect_call = 22;
    direct_call = 5;
    guard_check = 3;
    enqueue = 15;
    interp_step = 7;
    compiled_step = 1;
  }
