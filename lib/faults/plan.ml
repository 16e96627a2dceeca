(* Seeded fault plans.  Each fault kind draws from its own xorshift
   stream (Podopt_net.Prng) whose seed is splitmix64(base seed, salt,
   kind index): changing one kind's rate never shifts another kind's
   decision sequence, and each salt (shard id / broker front) owns a
   disjoint stream — the same seed discipline the broker's links use,
   so fault scenarios replay byte-identically at any domain count. *)

module Prng = Podopt_net.Prng

exception Injected_failure

type spec = {
  seed : int64;
  crash_permille : int;
  spike_permille : int;
  spike_cost : int;
  corrupt_permille : int;
  drop_permille : int;
  kill_permille : int;
}

let none =
  {
    seed = 1L;
    crash_permille = 0;
    spike_permille = 0;
    spike_cost = 4_000;
    corrupt_permille = 0;
    drop_permille = 0;
    kill_permille = 0;
  }

let enabled s =
  s.crash_permille > 0 || s.spike_permille > 0 || s.corrupt_permille > 0
  || s.drop_permille > 0 || s.kill_permille > 0

(* --- spec grammar ------------------------------------------------------ *)

let permille key v =
  match int_of_string_opt v with
  | Some n when n >= 0 && n <= 1000 -> Ok n
  | Some n -> Error (Printf.sprintf "%s=%d out of range (permille, 0..1000)" key n)
  | None -> Error (Printf.sprintf "%s=%S is not an integer" key v)

let of_string s =
  let s = String.trim s in
  if s = "" || s = "none" then Ok none
  else
    (* [seen] rejects duplicate keys: a spec like [crash=10,crash=0]
       has no one right reading, so it is an error rather than a silent
       last-win. *)
    let rec go acc seen = function
      | [] -> Ok acc
      | "" :: _ ->
        Error "empty fault field (stray or trailing comma in spec)"
      | field :: rest -> (
        match String.index_opt field '=' with
        | None -> Error (Printf.sprintf "bad fault field %S (expected key=value)" field)
        | Some i -> (
          let key = String.sub field 0 i in
          let v = String.sub field (i + 1) (String.length field - i - 1) in
          if List.mem key seen then
            Error (Printf.sprintf "duplicate fault key %S" key)
          else
            let seen = key :: seen in
            let ( let* ) = Result.bind in
            match key with
            | "seed" -> (
              match Int64.of_string_opt v with
              | Some seed -> go { acc with seed } seen rest
              | None -> Error (Printf.sprintf "seed=%S is not an integer" v))
            | "crash" ->
              let* crash_permille = permille key v in
              go { acc with crash_permille } seen rest
            | "spike" -> (
              (* spike=RATE or spike=RATE:COST *)
              let rate, cost =
                match String.index_opt v ':' with
                | None -> (v, None)
                | Some j ->
                  ( String.sub v 0 j,
                    Some (String.sub v (j + 1) (String.length v - j - 1)) )
              in
              let* spike_permille = permille key rate in
              match cost with
              | None -> go { acc with spike_permille } seen rest
              | Some c -> (
                match int_of_string_opt c with
                | Some spike_cost when spike_cost > 0 ->
                  go { acc with spike_permille; spike_cost } seen rest
                | _ -> Error (Printf.sprintf "spike cost %S must be a positive integer" c)))
            | "corrupt" ->
              let* corrupt_permille = permille key v in
              go { acc with corrupt_permille } seen rest
            | "drop" ->
              let* drop_permille = permille key v in
              go { acc with drop_permille } seen rest
            | "kill" ->
              let* kill_permille = permille key v in
              go { acc with kill_permille } seen rest
            | _ ->
              Error
                (Printf.sprintf
                   "unknown fault key %S (expected seed|crash|spike|corrupt|drop|kill)"
                   key)))
    in
    go none [] (String.split_on_char ',' s)

let to_string s =
  if not (enabled s) then "none"
  else
    (* kill is appended only when set, so pre-kill specs render exactly
       as they always did *)
    Printf.sprintf "seed=%Ld,crash=%d,spike=%d:%d,corrupt=%d,drop=%d%s" s.seed
      s.crash_permille s.spike_permille s.spike_cost s.corrupt_permille
      s.drop_permille
      (if s.kill_permille > 0 then Printf.sprintf ",kill=%d" s.kill_permille
       else "")

(* --- injector ---------------------------------------------------------- *)

type t = {
  spec : spec;
  salt : int;
  crash_rng : Prng.t;
  spike_rng : Prng.t;
  corrupt_rng : Prng.t;
  drop_rng : Prng.t;
  kill_rng : Prng.t;
  mutable logger : (salt:int -> kind:string -> fired:bool -> unit) option;
}

(* splitmix64: one finalization round per derived stream *)
let mix (z : int64) : int64 =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let stream seed ~salt ~kind =
  let open Int64 in
  let z =
    add seed (mul 0x9E3779B97F4A7C15L (of_int (((salt + 1) * 8) + kind)))
  in
  let s = mix z in
  Prng.create ~seed:(if s = 0L then 1L else s)

let create ?(salt = 0) spec =
  {
    spec;
    salt;
    crash_rng = stream spec.seed ~salt ~kind:1;
    spike_rng = stream spec.seed ~salt ~kind:2;
    corrupt_rng = stream spec.seed ~salt ~kind:3;
    drop_rng = stream spec.seed ~salt ~kind:4;
    kill_rng = stream spec.seed ~salt ~kind:5;
    logger = None;
  }

let spec t = t.spec
let salt t = t.salt
let set_logger t logger = t.logger <- logger

(* Report one draw decision to the logger (the record/replay layer);
   only actual stream advances are reported, so the logged sequence is
   exactly the sequence a replay must reproduce. *)
let log t ~kind fired =
  (match t.logger with
   | Some f -> f ~salt:t.salt ~kind ~fired
   | None -> ());
  fired

let crash t = log t ~kind:"crash" (Prng.bool t.crash_rng ~permille:t.spec.crash_permille)

let spike t =
  if log t ~kind:"spike" (Prng.bool t.spike_rng ~permille:t.spec.spike_permille)
  then Some t.spec.spike_cost
  else None

let drop t = log t ~kind:"drop" (Prng.bool t.drop_rng ~permille:t.spec.drop_permille)

let corrupt t (b : bytes) =
  if
    Bytes.length b > 0
    && log t ~kind:"corrupt"
         (Prng.bool t.corrupt_rng ~permille:t.spec.corrupt_permille)
  then begin
    let b' = Bytes.copy b in
    let i = Prng.int t.corrupt_rng (Bytes.length b') in
    (* xor with a non-zero mask so the byte always changes *)
    let mask = 1 + Prng.int t.corrupt_rng 255 in
    Bytes.set b' i (Char.chr (Char.code (Bytes.get b' i) lxor mask));
    Some b'
  end
  else None

let kill t = log t ~kind:"kill" (Prng.bool t.kill_rng ~permille:t.spec.kill_permille)

(* --- stream checkpointing ----------------------------------------------

   An injector's streams are part of a shard's live state: a crash
   recovery that restores a checkpoint must also rewind every stream to
   its checkpoint-time position, so re-dispatching the journaled ops
   re-draws the exact same fault decisions. *)

let kinds = [ "crash"; "spike"; "corrupt"; "drop"; "kill" ]

let streams t =
  List.combine kinds
    [ t.crash_rng; t.spike_rng; t.corrupt_rng; t.drop_rng; t.kill_rng ]

let stream_states t =
  List.map (fun (kind, rng) -> (kind, Prng.state rng)) (streams t)

let set_stream_states t states =
  List.iter
    (fun (kind, rng) ->
      match List.assoc_opt kind states with
      | Some s -> Prng.set_state rng s
      | None -> ())
    (streams t)
