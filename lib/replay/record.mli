(** The run recorder.

    [run cfg profile] executes the measured broker protocol
    ({!Podopt_broker.Loadgen.steady} itself, with a session maker that
    notes each phase's sessions) while capturing every fault draw, and
    returns the {!Log.t} bundling the run's workload with its JSON
    document.  The recorded run produces the same document as an
    uninstrumented [serve --json] of the same configuration: the
    logging hooks spend no virtual time and draw from no stream. *)

val run :
  ?warmup_ops:int (** default 12 *) ->
  ?metrics:bool (** include the [events] JSON section (default false) *) ->
  Podopt_broker.Broker.config ->
  Podopt_broker.Loadgen.profile ->
  Log.t
