(** Open-loop arrival processes for session op schedules.

    Closed-loop sessions send on the fixed grid [start + k*interval];
    the zoo's open-loop processes replace that grid with a seeded
    inter-arrival draw, so session traffic can be bursty
    (heavy-tailed) or synchronized (flash crowds) while staying a pure
    function of [(spec, seed, start, interval, ops)] — replayable
    bit-for-bit without recording a single timestamp.

    Spec grammar (the [--arrivals] flag):

    {ul
    {- [periodic] — the closed-loop grid, gap = [interval] exactly
       (the default; byte-identical to the pre-zoo broker);}
    {- [uniform] — gaps uniform in [[1, 2*interval - 1]], mean
       [interval];}
    {- [pareto:ALPHA] — Pareto(ALPHA) heavy-tailed gaps ([ALPHA > 1],
       finite), scaled so the mean gap is [interval] and capped at
       [50 * interval] so one draw cannot stall a session forever;}
    {- [flash:T:MULT] — deterministic flash crowds: every [T] virtual
       units the first quarter of the cycle runs [MULT]x hot
       (gap = [interval / MULT]), the rest of the cycle at the base
       rate ([T > 0], [MULT > 1]).}} *)

type spec =
  | Periodic
  | Uniform
  | Pareto of float       (** shape ALPHA, > 1 and finite *)
  | Flash of int * int    (** cycle length T, burst multiplier MULT *)

(** The spec in the grammar above; [ALPHA] prints as
    {!Podopt_codec.Lines.float_to_string} does, so {!of_string} reads it
    back to the same float. *)
val to_string : spec -> string

(** Parse a spec; rejects malformed or out-of-range fields with a
    message naming the grammar (same hardening discipline as the
    faults-plan and route parsers). *)
val of_string : string -> (spec, string) result

(** The full send schedule for one session: [ops] absolute due times,
    strictly increasing from [start] ([schedule.(0) = start]; every
    gap is >= 1).  The PRNG stream is salted away from the session's
    link stream, so arrival draws never correlate with loss/jitter
    draws seeded from the same value.  [Periodic] reproduces
    [start + k*interval] exactly.  Raises [Invalid_argument] on
    [ops < 0] or [interval <= 0]. *)
val schedule :
  spec -> seed:int64 -> start:int -> interval:int -> ops:int -> int array
