(* The on-disk run log: the workload a broker run was given, serialized
   so the run can be reconstructed offline — the replay analogue of
   Podopt_profile.Trace_io.  The framing is Podopt_codec.Lines's (one
   record per line, whitespace-separated fields, [#] comments, verbatim
   [D] and [J] documents, a [Lines.Format_error] on anything malformed).

   Format (version 9; any other version is refused):

     V <version>
     C <shards> <batch> <queue_limit> <policy> <kind> <optimize>
       <compile> <seed> <tick> <domains> <faults-spec>
       <checkpoint-every> <route> <arrivals>
     D <verbatim line>                             embedded profile store
     Y <crc32-hex>                                 digest of the D lines
     P <sessions> <ops> <interval> <spread> <latency> <jitter>
       <warmup_ops> <metrics>
     S <phase> <id> <index> <start> <interval> <nops>  one per session
     O <phase> <id> <seq> <payload-hex>            one per op payload
     F <salt> <kind> <bits>                        fault-draw decisions
     M <epoch> <shard> <from> <to>                 migration plan, in order
     J <verbatim line>                             the original JSON doc

   [phase] is [w] (warm-up) or [m] (measured).  [index] is the
   session's index in the load generator, the salt of its seeds; it and
   [nops] are non-negative.  [F] bits are the per-(salt, kind) draw
   stream in draw order, [1] = fired ([-] = no draws).  Payload hex uses
   [-] for empty payloads.

   A warm-started run's config carries its profile store; the [D] lines
   embed that store verbatim (the run's profile identity), and [Y] pins
   its CRC-32 — a swapped or edited profile fails the digest check at
   load, the same way replayed fault draws are verified against [F]
   lines.

   [checkpoint-every] is the crash-recovery supervisor's checkpoint
   interval, [route] the routing discipline, and [arrivals] the
   sessions' op arrival process ([periodic] or an open-loop spec, see
   {!Podopt_broker.Arrivals}).  What the config's seeds draw is not
   recorded: a session's link delays and open-loop schedule are a pure
   function of (config, session index, start, interval, op count), and
   the fault streams of (spec, salt), so replay re-derives them.  [M]
   lines record the measured phase's hot-shard migration plan, in
   decision order: the plan is a pure function of recorded state too,
   so a replay at the recorded domain count must re-derive it exactly —
   replay verifies this. *)

module Plan = Podopt_faults.Plan
module Broker = Podopt_broker.Broker
module Loadgen = Podopt_broker.Loadgen
module Policy = Podopt_broker.Policy
module Workload = Podopt_broker.Workload

module Store = Podopt_store.Store
module Lines = Podopt_codec.Lines

let version = 9

type sess = {
  s_phase : string;  (* "w" | "m" *)
  s_id : string;
  s_index : int;     (* the load generator's session index *)
  s_start : int;
  s_interval : int;
  s_ops : bytes array;
}

type t = {
  config : Broker.config;
  profile : Loadgen.profile;
  warmup_ops : int;
  metrics : bool;
  sessions : sess list;    (* creation order: warm-up phase, then measured *)
  fault_draws : ((int * string) * bool list) list;
      (* (salt, kind) -> fired bits in draw order; sorted by key *)
  migrations : (int * int * int * int) list;
      (* measured-phase migration plan, decision order:
         (epoch, shard, from_worker, to_worker) *)
  json : string;           (* the run's serve-JSON document, newline-terminated *)
}

(* --- small codecs ------------------------------------------------------ *)

let bits_of_bools = function
  | [] -> "-"
  | bs -> String.concat "" (List.map (fun b -> if b then "1" else "0") bs)

let bools_of_bits = function
  | "-" -> []
  | s ->
    List.init (String.length s) (fun i ->
        match s.[i] with
        | '1' -> true
        | '0' -> false
        | c -> Lines.error "bad draw bit %C in %S" c s)

let check_phase = function
  | ("w" | "m") as p -> p
  | p -> Lines.error "bad phase %S (expected w or m)" p

(* A count or index: an int that is not negative. *)
let count what s =
  let n = Lines.int what s in
  if n < 0 then Lines.error "bad %s %d (negative)" what n;
  n

(* --- encode ------------------------------------------------------------ *)

let to_string (t : t) : string =
  let buf = Buffer.create 8192 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let cfg = t.config and p = t.profile in
  line "# podopt replay log";
  line "V %d" version;
  line "C %d %d %d %s %s %b %b %Ld %d %d %s %d %s %s" cfg.Broker.shards
    cfg.Broker.batch cfg.Broker.queue_limit
    (Policy.shed_to_string cfg.Broker.policy)
    (Workload.kind_to_string cfg.Broker.kind)
    cfg.Broker.optimize cfg.Broker.compile cfg.Broker.seed cfg.Broker.tick
    cfg.Broker.domains
    (Plan.to_string cfg.Broker.faults)
    cfg.Broker.checkpoint_every
    (Podopt_broker.Shard_map.route_to_string cfg.Broker.route)
    (Podopt_broker.Arrivals.to_string cfg.Broker.arrivals);
  (match cfg.Broker.profile_in with
   | None -> ()
   | Some store ->
     (* the profile is this run's identity: embed it verbatim and pin
        its digest, so a swapped profile is caught at load time *)
     let body = Store.to_string store in
     Lines.add_doc buf 'D' body;
     line "Y %s" (Lines.digest body));
  line "P %d %d %d %d %d %d %d %b" p.Loadgen.sessions p.Loadgen.ops
    p.Loadgen.interval p.Loadgen.spread p.Loadgen.latency p.Loadgen.jitter
    t.warmup_ops t.metrics;
  List.iter
    (fun s ->
      line "S %s %s %d %d %d %d" s.s_phase s.s_id s.s_index s.s_start
        s.s_interval (Array.length s.s_ops);
      Array.iteri
        (fun seq op ->
          line "O %s %s %d %s" s.s_phase s.s_id seq (Lines.hex (Bytes.unsafe_to_string op)))
        s.s_ops)
    t.sessions;
  List.iter
    (fun ((salt, kind), bits) -> line "F %d %s %s" salt kind (bits_of_bools bits))
    (List.sort compare t.fault_draws);
  List.iter
    (fun (epoch, shard, from_w, to_w) ->
      line "M %d %d %d %d" epoch shard from_w to_w)
    t.migrations;
  Lines.add_doc buf 'J' t.json;
  Buffer.contents buf

(* --- decode ------------------------------------------------------------ *)

let config_of_fields fields =
  match fields with
  | [ shards; batch; queue_limit; policy; kind; optimize; compile; seed; tick;
      domains; faults; checkpoint_every; route; arrivals ] ->
    let parsed what of_string s =
      match of_string s with Ok v -> v | Error e -> Lines.error "bad %s: %s" what e
    in
    let seed =
      match Int64.of_string_opt seed with
      | Some s -> s
      | None -> Lines.error "bad seed %S" seed
    in
    {
      Broker.shards = Lines.int "shards" shards;
      batch = Lines.int "batch" batch;
      queue_limit = Lines.int "queue_limit" queue_limit;
      policy = parsed "policy" Policy.shed_of_string policy;
      kind = parsed "kind" Workload.kind_of_string kind;
      optimize = Lines.bool "optimize" optimize;
      compile = Lines.bool "compile" compile;
      seed;
      tick = Lines.int "tick" tick;
      domains = Lines.int "domains" domains;
      faults = parsed "faults spec" Plan.of_string faults;
      profile_in = None;  (* filled in from the D lines, if any *)
      checkpoint_every = Lines.int "checkpoint-every" checkpoint_every;
      route = parsed "route" Podopt_broker.Shard_map.route_of_string route;
      arrivals = parsed "arrivals" Podopt_broker.Arrivals.of_string arrivals;
    }
  | _ -> Lines.error "bad C line (%d fields, expected 14)" (List.length fields)

let of_string (s : string) : t =
  let config = ref None in
  let profile = ref None in
  let warmup_ops = ref 0 in
  let metrics = ref false in
  let sessions = ref [] in  (* (phase, id, index, start, interval, nops) rev *)
  let ops : (string * string, (int * bytes) list ref) Hashtbl.t = Hashtbl.create 64 in
  let faults = ref [] in
  let migrations = ref [] in
  let json = ref "" in
  let embedded = ref "" in
  let ydigest = ref None in
  let record line fields =
    match fields with
    | [] -> ()
    | "C" :: rest -> config := Some (config_of_fields rest)
    | [ "P"; sessions'; ops'; interval; spread; latency; jitter; warmup; metrics' ] ->
      profile :=
        Some
          {
            Loadgen.sessions = Lines.int "sessions" sessions';
            ops = Lines.int "ops" ops';
            interval = Lines.int "interval" interval;
            spread = Lines.int "spread" spread;
            latency = Lines.int "latency" latency;
            jitter = Lines.int "jitter" jitter;
          };
      warmup_ops := Lines.int "warmup_ops" warmup;
      metrics := Lines.bool "metrics" metrics'
    | [ "S"; phase; id; index; start; interval; nops ] ->
      sessions :=
        ( check_phase phase, id, count "index" index, Lines.int "start" start,
          Lines.int "interval" interval, count "nops" nops )
        :: !sessions
    | [ "O"; phase; id; seq; hex ] ->
      let key = (check_phase phase, id) in
      let cell =
        match Hashtbl.find_opt ops key with
        | Some c -> c
        | None ->
          let c = ref [] in
          Hashtbl.add ops key c;
          c
      in
      cell := (Lines.int "seq" seq, Lines.of_hex hex) :: !cell
    | [ "F"; salt; kind; bits ] ->
      faults := ((Lines.int "salt" salt, kind), bools_of_bits bits) :: !faults
    | [ "M"; epoch; shard; from_w; to_w ] ->
      migrations :=
        ( Lines.int "epoch" epoch, Lines.int "shard" shard,
          Lines.int "from" from_w, Lines.int "to" to_w )
        :: !migrations
    | [ "Y"; digest ] -> ydigest := Some digest
    | tag :: _ -> Lines.error "bad record tag %S in line %S" tag line
  in
  (* D and J lines carry their documents verbatim (spaces included) *)
  Lines.iter ~version:("log", version)
    ~docs:[ ('D', ( := ) embedded); ('J', ( := ) json) ]
    record s;
  let config = match !config with Some c -> c | None -> Lines.error "missing C line" in
  let profile = match !profile with Some p -> p | None -> Lines.error "missing P line" in
  let sessions =
    List.rev_map
      (fun (phase, id, index, start, interval, nops) ->
        let collected =
          match Hashtbl.find_opt ops (phase, id) with Some c -> !c | None -> []
        in
        let arr = Array.make nops (Bytes.create 0) in
        let seen = Array.make nops false in
        List.iter
          (fun (seq, payload) ->
            if seq < 0 || seq >= nops then
              Lines.error "op seq %d out of range for session %s/%s" seq phase id;
            arr.(seq) <- payload;
            seen.(seq) <- true)
          collected;
        Array.iteri
          (fun seq ok ->
            if not ok then Lines.error "missing op %d for session %s/%s" seq phase id)
          seen;
        { s_phase = phase; s_id = id; s_index = index; s_start = start;
          s_interval = interval; s_ops = arr })
      !sessions
  in
  let profile_in =
    match !embedded with
    | "" ->
      if !ydigest <> None then
        Lines.error "Y digest line without an embedded profile";
      None
    | body ->
      (match !ydigest with
       | None -> Lines.error "embedded profile is missing its Y digest line"
       | Some d ->
         let actual = Lines.digest body in
         if not (String.equal d actual) then
           Lines.error
             "embedded profile digest mismatch (log says %s, content is %s): \
              the profile was altered after recording" d actual);
      (match Store.of_string body with
       | store -> Some store
       | exception Lines.Format_error e ->
         Lines.error "bad embedded profile: %s" e)
  in
  let config = { config with Broker.profile_in } in
  {
    config;
    profile;
    warmup_ops = !warmup_ops;
    metrics = !metrics;
    sessions;
    fault_draws = List.sort compare (List.rev !faults);
    migrations = List.rev !migrations;
    json = !json;
  }

(* Sessions of one phase, in creation order. *)
let phase_sessions t phase = List.filter (fun s -> s.s_phase = phase) t.sessions
