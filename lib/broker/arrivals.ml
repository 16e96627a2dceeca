(* Open-loop arrival schedules.  Everything here is a pure function of
   (spec, seed, start, interval, ops): the replayer re-derives a
   session's schedule from the recorded config instead of logging
   per-op timestamps, so the codec below is part of the replay-log
   vocabulary and must stay stable. *)

module Prng = Podopt_net.Prng

type spec =
  | Periodic
  | Uniform
  | Pareto of float
  | Flash of int * int

let to_string = function
  | Periodic -> "periodic"
  | Uniform -> "uniform"
  | Pareto a -> "pareto:" ^ Podopt_codec.Lines.float_to_string a
  | Flash (t, m) -> Printf.sprintf "flash:%d:%d" t m

let grammar = "periodic|uniform|pareto:ALPHA|flash:T:MULT"

let of_string str =
  match String.split_on_char ':' str with
  | [ "periodic" ] -> Ok Periodic
  | [ "uniform" ] -> Ok Uniform
  | [ "pareto"; a ] ->
    (match float_of_string_opt a with
     | Some alpha when alpha > 1.0 && Float.is_finite alpha -> Ok (Pareto alpha)
     | Some _ | None ->
       Error
         (Printf.sprintf "bad pareto shape %S (expected pareto:ALPHA, ALPHA > 1)"
            a))
  | [ "flash"; t; m ] ->
    (match (int_of_string_opt t, int_of_string_opt m) with
     | Some t, Some m when t > 0 && m > 1 -> Ok (Flash (t, m))
     | Some _, Some _ ->
       Error
         (Printf.sprintf
            "bad flash burst %S:%S (expected flash:T:MULT, T > 0, MULT > 1)" t m)
     | _ ->
       Error
         (Printf.sprintf
            "bad flash burst %S:%S (expected flash:T:MULT, T > 0, MULT > 1)" t m))
  | _ -> Error (Printf.sprintf "unknown arrivals %S (expected %s)" str grammar)

(* Salt the arrival stream away from the link stream: Loadgen seeds a
   session's link from (broker seed + index + 1) and hands the same
   value here, so without the salt every loss/jitter draw would be
   correlated with an arrival draw. *)
let salt = 0x9e3779b97f4a7c15L

let gap spec rng ~interval ~elapsed =
  match spec with
  | Periodic -> interval
  | Uniform ->
    (* uniform in [1, 2*interval - 1]: mean = interval, never 0 *)
    1 + Prng.int rng ((2 * interval) - 1)
  | Pareto alpha ->
    (* inverse-transform Pareto with scale xm chosen so the mean
       xm * alpha / (alpha - 1) equals [interval]; capped so one tail
       draw cannot push a session past any reasonable horizon *)
    let xm = float_of_int interval *. (alpha -. 1.0) /. alpha in
    let u =
      (* u in (0, 1]: the +1 keeps the draw off 0 where the inverse
         CDF diverges *)
      float_of_int (1 + Prng.int rng 1_000_000) /. 1_000_000.0
    in
    let g = xm /. Float.pow u (1.0 /. alpha) in
    let cap = 50 * interval in
    max 1 (min cap (int_of_float g))
  | Flash (t, m) ->
    (* the first quarter of every T-cycle is the crowd: MULT-times the
       base rate, deterministic so every session surges together *)
    if elapsed mod t < t / 4 then max 1 (interval / m) else interval

let schedule spec ~seed ~start ~interval ~ops =
  if ops < 0 then invalid_arg "Arrivals.schedule: ops < 0";
  if interval <= 0 then invalid_arg "Arrivals.schedule: interval <= 0";
  let rng = Prng.create ~seed:(Int64.logxor seed salt) in
  let due = Array.make (max ops 1) start in
  let t = ref start in
  for k = 0 to ops - 1 do
    due.(k) <- !t;
    t := !t + gap spec rng ~interval ~elapsed:(!t - start)
  done;
  if ops = 0 then [||] else Array.sub due 0 ops
