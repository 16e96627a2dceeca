(* The four benchmark workloads.  Each stresses a different layer, so a
   change to one layer shows on the workload that exercises it and
   shows as no change on the others (see README.md for the table of
   which metric each layer should move). *)

module B = Podopt_broker

type t = {
  name : string;
  kind : B.Workload.kind;
  arrivals : B.Arrivals.spec;
  interval : int;         (* mean virtual units between a session's ops *)
  spread : int;           (* mean virtual units between session starts *)
  wave : int;             (* sessions that start together (1 = evenly spread) *)
  sessions : int;
  ops : int;              (* ops per session per measured round *)
  quick_sessions : int;   (* the --quick sizes: a smoke run, not a measurement *)
  quick_ops : int;
  shards : int;
  batch : int;
  queue_limit : int;
  policy : B.Policy.shed;
  route : B.Shard_map.route;
  domains : int;
  faults : string;        (* fault spec minus its seed; "" = no faults *)
  checkpoint_every : int;
  max_retries : int;      (* client retries before giving an op up *)
  crypto_per_op : bool;   (* one op = one DES+HMAC-MD5 push/pop round trip *)
}

let base =
  {
    name = "";
    kind = B.Workload.Seccomm;
    arrivals = B.Arrivals.Periodic;
    interval = 120;
    spread = 37;
    wave = 1;
    sessions = 64;
    ops = 20;
    quick_sessions = 8;
    quick_ops = 6;
    shards = 2;
    batch = 16;
    queue_limit = 64;
    policy = B.Policy.Drop_newest;
    route = B.Shard_map.Hash;
    domains = 1;
    faults = "";
    checkpoint_every = 8;
    max_retries = B.Policy.default_backoff.B.Policy.max_retries;
    crypto_per_op = false;
  }

let all =
  [
    (* DES and HMAC-MD5 are the whole op, so only the crypto layer can
       move it; dispatch machinery is a rounding error here *)
    {
      base with
      name = "seccomm-closed";
      kind = B.Workload.Seccomm;
      sessions = 64;
      ops = 24;
      shards = 2;
      queue_limit = 256;
      crypto_per_op = true;
    };
    (* tiny handlers behind a synchronous 2-7 way fan-out, so dispatch
       and the optimizer dominate drain time; open loop below capacity *)
    {
      base with
      name = "chat-fanout";
      kind = B.Workload.Chat;
      arrivals = B.Arrivals.Uniform;
      sessions = 96;
      ops = 1200;
      quick_sessions = 12;
      quick_ops = 40;
      shards = 4;
    };
    (* mixed GUI paths on Zipf-skewed shards drained by 2 worker domains:
       the only workload that runs the domain pool and the migration
       planner *)
    {
      base with
      name = "xwin-zipf-2dom";
      kind = B.Workload.Xwin;
      sessions = 64;
      ops = 1000;
      quick_sessions = 16;
      quick_ops = 40;
      shards = 8;
      route = B.Shard_map.Zipf 1.4;
      domains = 2;
    };
    (* flash-crowd overload plus injected crashes and shard kills:
       ingress shedding, client retries and checkpoint recovery run only
       here *)
    {
      base with
      name = "flash-chaos";
      kind = B.Workload.Chat;
      arrivals = B.Arrivals.Flash (600, 8);
      spread = 40;
      wave = 32;
      sessions = 1000;
      ops = 20;
      quick_sessions = 120;
      quick_ops = 10;
      shards = 4;
      batch = 8;
      queue_limit = 32;
      policy = B.Policy.Drop_oldest;
      faults = "crash=5,kill=20";
      checkpoint_every = 4;
      max_retries = 12;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
let names () = List.map (fun w -> w.name) all
