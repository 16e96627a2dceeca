(** Cost model for the deterministic measurement mode.

    Each constant prices one of the overhead sources the paper identifies
    (Secs. 1, 3.2): registry lookup and locking, argument marshaling,
    indirect handler invocation, and interpretive execution versus
    compiled super-handler code.  Defaults are calibrated so the
    reproduced tables match the {e shape} of the paper's results;
    absolute values are abstract units. *)

type model = {
  registry_lookup : int;
  lock : int;
  lock_merged : int;
      (** residual per-access cost inside a merged super-handler, which
          holds the state lock across the merged body — the paper's
          "state maintenance costs" elimination *)
  marshal_base : int;
  marshal_per_byte : int;
  unmarshal_base : int;
  unmarshal_per_byte : int;
  indirect_call : int;
  direct_call : int;
  guard_check : int;
  enqueue : int;
  interp_step : int;
  compiled_step : int;
}

val default : model
