(** Trace persistence: a line-oriented text format so traces can be
    collected in one run and analyzed off-line in another (the paper's
    off-line methodology).

    Format: [E <time> <depth> <mode> <event>] for occurrences (mode
    [S]/[A]/[T<delay>]), [DB]/[DE] for dispatch boundaries, [HB]/[HE]
    for handler begin/end.  The framing is {!Podopt_codec.Lines}'s:
    blank lines and [#] comments are ignored on load, there is no [V]
    line, and anything malformed raises
    {!Podopt_codec.Lines.Format_error}.  Files are written and read
    with {!Podopt_codec.Lines.save} and {!Podopt_codec.Lines.load}. *)

open Podopt_eventsys

val entry_to_line : Trace.entry -> string

(** [None] for blank input. *)
val entry_of_line : string -> Trace.entry option

val to_string : Trace.t -> string
val of_string : string -> Trace.t
