(* Wall-clock benchmark of the broker.  Run from the repository root:

     dune exec ./benchmark/main.exe -- run [--workload W] [--seed S]
         [--seconds N] [--trace 0|1] [--quick] [--repeat N]
     dune exec ./benchmark/main.exe -- golden > benchmark/golden.txt

   [run] without [--workload] (or with [--repeat]) runs every workload
   in a fresh process of its own, so heap peaks and GC state cannot leak
   from one workload into the next; the workloads share the [--seconds]
   of the run.  Every metric is printed as [workload metric value unit];
   the last line is a JSON object with [correct], [attempted], [failed]
   and [metrics].  The exit code is non-zero when any round's
   observables differ from the generic reference, a run is cut short, or
   the golden digest of the default seed is missing.  See README.md. *)

module Messenger = Podopt_apps.Secure_messenger

let default_seed = 11

(* The measured time of a run, and what a benchmark runner passes as
   [--seconds] (the [run_seconds] of BENCHMARK.json). *)
let default_seconds = 20.
let golden_path = "benchmark/golden.txt"
let trace_dir = "benchmark/traces"

type metric = { name : string; unit : string }

let m name unit = { name; unit }

let end_to_end =
  [
    m "ops_per_s" "1/s";
    m "resp_ms_p50" "ms";
    m "resp_ms_p99" "ms";
    m "op_us_p50" "us";
    m "op_us_p90" "us";
    m "sends_per_op" "ratio";
    m "setup_s" "s";
    m "heap_peak_mb" "MB";
  ]

let per_layer =
  [
    m "session.pump_s" "s"; m "session.ns_per_send" "ns"; m "session.sent" "count";
    m "session.retries" "count"; m "session.gave_up" "count";
    m "front.pump_s" "s"; m "front.ns_per_routed" "ns"; m "front.routed" "count";
    m "front.link_dropped" "count";
    m "ingress.offered" "count"; m "ingress.accept_ratio" "ratio"; m "ingress.shed" "count";
    m "ingress.displaced" "count"; m "ingress.qwait_units_p99" "units";
    m "drain.s" "s"; m "drain.steps" "count"; m "drain.ops_per_step" "ops/step";
    m "drain.overhead_s" "s";
    m "sched.steals" "count"; m "sched.migrations" "count"; m "sched.critical_share" "ratio";
    m "sched.busy_share" "ratio";
    m "dispatch.op_gap_s" "s"; m "dispatch.opt_share" "ratio"; m "dispatch.optimized" "count";
    m "dispatch.generic" "count"; m "dispatch.fallbacks" "count"; m "dispatch.failures" "count";
    m "dispatch.marshal_bytes_per_op" "bytes"; m "dispatch.units_per_op" "units";
    m "dispatch.ns_per_unit" "ns/unit";
    m "optimizer.reopt_ms" "ms"; m "optimizer.reoptimizations" "count";
    m "optimizer.breaker_trips" "count"; m "optimizer.wall_gain" "ratio";
    m "crypto.des_us" "us"; m "crypto.hmac_md5_us" "us"; m "crypto.share_est" "ratio";
    m "recover.kills" "count"; m "recover.recoveries" "count"; m "recover.redelivered" "count";
    m "recover.checkpoints" "count"; m "recover.ckpt_bytes" "bytes"; m "recover.ckpt_us" "us";
    m "recover.step_extra_ms" "ms";
    m "gc.minor_words_per_op" "words"; m "gc.major_collections" "count"; m "gc.minor_ms" "ms";
    m "gc.major_ms" "ms";
    m "driver.s" "s";
    m "trace.overhead" "ratio"; m "trace.coverage" "ratio";
  ]

(* --- statistics ------------------------------------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s and n = List.length s in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] gives them
   (the default "exclusive" method), for --repeat. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q p =
      let pos = float_of_int (n + 1) *. p in
      let j = max 1 (min (n - 1) (int_of_float pos)) in
      let delta = pos -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    (q 0.25, q 0.75)

(* --- output ---------------------------------------------------------------- *)

(* [name] may carry a ["workload:"] prefix (the multi-workload JSON) *)
let unit_of name =
  let base =
    match String.index_opt name ':' with
    | Some i -> String.sub name (i + 1) (String.length name - i - 1)
    | None -> name
  in
  match List.find_opt (fun x -> x.name = base) (end_to_end @ per_layer) with
  | Some x -> x.unit
  | None -> "count"

let print_metric workload name value =
  Printf.printf "%s %s %.12g %s\n" workload name value (unit_of name)

let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let print_json ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v) ->
        Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_number v)
          (unit_of name))
      metrics
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed (String.concat ", " body);
  print_newline ()

(* --- golden digests ----------------------------------------------------------

   One line per workload and size: [workload full|quick digest], made by
   the generic (optimize = false) path at the default seed. *)

let size_name quick = if quick then "quick" else "full"

let golden_digest (w : Workloads.t) ~quick =
  match In_channel.with_open_text golden_path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    let key = Printf.sprintf "%s %s " w.name (size_name quick) in
    (match List.find_opt (String.starts_with ~prefix:key) (String.split_on_char '\n' text) with
     | Some line ->
       Ok (String.trim (String.sub line (String.length key) (String.length line - String.length key)))
     | None -> Error (Printf.sprintf "%s has no %s digest for %s" golden_path (size_name quick) w.name))

(* --- one workload, in this process ------------------------------------------- *)

type opts = {
  workloads : Workloads.t list;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  repeat : int;
}

let elapsed_s t0 = float_of_int (Harness.now_ns () - t0) /. 1e9

let med f rs = median (List.map f rs)
let ns_to x scale = float_of_int x /. scale

(* A round and the host's slowness around it: the mean of the probes
   taken just before and just after it (see [Harness.host_factor]). *)
type timed = { r : Harness.round; host : float }

(* At least [min_rounds] rounds, then more while one more round of the
   mean length so far still ends within [seconds].  With [trace], the
   rounds are traced and the first one keeps its spans. *)
let rounds ?trace ~min_rounds ~seconds inp ~optimize =
  let t0 = Harness.now_ns () in
  let rec go acc n before =
    if n >= max 1 min_rounds && elapsed_s t0 *. float_of_int (n + 1) /. float_of_int n > seconds
    then List.rev acc
    else
      let r =
        match trace with
        | None -> Harness.round inp ~optimize
        | Some (gc, sink) ->
          Harness.round ~gc ?sink:(if n = 0 then Some sink else None) inp ~optimize
      in
      let after = Harness.host_factor () in
      go ({ r; host = (before +. after) /. 2. } :: acc) (n + 1) after
  in
  go [] 0 (Harness.host_factor ())

(* End-to-end times are scaled to the reference host speed. *)
let throughput t = float_of_int t.r.ok /. ns_to t.r.wall_ns 1e9 *. t.host

(* Percentile [p] of one sample buffer per round, each scaled to the
   reference host speed, pooled over the rounds. *)
let pooled f ts p =
  let all = Harness.pool (List.map (fun t -> Harness.scaled (f t.r) (1. /. t.host)) ts) in
  Harness.percentile all (Bigarray.Array1.dim all) p

let resp (r : Harness.round) = r.resp
let gaps (r : Harness.round) = r.gaps

(* The faster half of the rounds, by throughput.  Bursts of load from
   other tenants that are shorter than the probes can see still only
   ever slow a round down. *)
let faster_half ts =
  let sorted = List.sort (fun a b -> compare (throughput b) (throughput a)) ts in
  List.filteri (fun i _ -> i < (List.length ts + 1) / 2) sorted

(* Over the faster half of the rounds: throughput and set-up time are
   medians, latency percentiles pool the samples of those rounds so the
   tail rests on enough samples. *)
let e2e_metrics ts ~heap_mb =
  let ts = faster_half ts in
  [
    ("ops_per_s", med throughput ts);
    ("resp_ms_p50", ns_to (pooled resp ts 50.) 1e6);
    ("resp_ms_p99", ns_to (pooled resp ts 99.) 1e6);
    ("op_us_p50", ns_to (pooled gaps ts 50.) 1e3);
    ("op_us_p90", ns_to (pooled gaps ts 90.) 1e3);
    ("sends_per_op", med (fun t -> float_of_int t.r.sends /. float_of_int t.r.scheduled) ts);
    ("setup_s", med (fun t -> ns_to t.r.setup_ns 1e9 /. t.host) ts);
    ("heap_peak_mb", heap_mb);
  ]

(* Wall time of one call of [f], in us: the mean over a batch of calls
   filling ~10 ms, minimum over 9 batches (the batch least disturbed by
   other tenants, as end-to-end metrics use the faster rounds). *)
let time_us f =
  let batch () =
    let t0 = Harness.now_ns () in
    let n = ref 0 in
    while Harness.now_ns () - t0 < 10_000_000 do
      ignore (Sys.opaque_identity (f ()));
      incr n
    done;
    float_of_int (Harness.now_ns () - t0) /. float_of_int !n /. 1e3
  in
  List.fold_left min infinity (List.init 9 (fun _ -> batch ()))

(* What one SecComm op does to its 256-byte message: a DES key schedule
   plus encrypt on push and decrypt on pop, and an HMAC-MD5 on each side.
   Scaled to the reference host speed like [op_us_p50], which
   [crypto.share_est] divides it by. *)
let crypto_times () =
  let before = Harness.host_factor () in
  let module Des = Podopt_crypto.Des in
  let module Hmac = Podopt_crypto.Hmac_md5 in
  let msg = Messenger.message ~size:256 0 in
  let key = Bytes.of_string "8bytekey" in
  let wire = Des.encrypt_ecb (Des.key_of_bytes key) msg in
  let des_us =
    time_us (fun () ->
        ignore (Des.encrypt_ecb (Des.key_of_bytes key) msg);
        Des.decrypt_ecb (Des.key_of_bytes key) wire)
  in
  let mac_key = Bytes.of_string "mackey-0123456789" in
  let hmac_us =
    time_us (fun () ->
        ignore (Hmac.compute ~key:mac_key msg);
        Hmac.compute ~key:mac_key wire)
  in
  let host = (before +. Harness.host_factor ()) /. 2. in
  (des_us /. host, hmac_us /. host)

(* Per-layer metrics of the traced rounds: the median over rounds, at
   the host's speed of the moment (they carry no bound). *)
let layer_medians ts =
  match ts with
  | [] -> []
  | t :: _ ->
    List.map
      (fun (name, _) -> (name, median (List.map (fun t -> List.assoc name t.r.layers) ts)))
      t.r.layers

(* Self time by layer, summed over the traced rounds.  The rows
   partition the measured wall time; GC falls inside them. *)
let print_self_time name ts =
  let get k = List.fold_left (fun a t -> a +. List.assoc k t.r.layers) 0. ts in
  let wall = List.fold_left (fun a t -> a +. ns_to t.r.wall_ns 1e9) 0. ts in
  let rows =
    [
      ("session", get "session.pump_s");
      ("front", get "front.pump_s");
      ("drain.overhead", get "drain.overhead_s");
      ("dispatch", get "drain.s" -. get "drain.overhead_s");
      ("driver", get "driver.s");
    ]
  in
  Printf.printf "# %s self time over %d traced rounds (measured wall %.4f s)\n" name
    (List.length ts) wall;
  List.iter
    (fun (k, v) -> Printf.printf "#   %-15s %10.4f s %6.1f%%\n" k v (100. *. v /. wall))
    rows;
  let sum = List.fold_left (fun a (_, v) -> a +. v) 0. rows in
  Printf.printf "#   %-15s %10.4f s %6.1f%%\n" "sum" sum (100. *. sum /. wall);
  let gc = get "gc.coordinator_ms" /. 1e3 in
  Printf.printf "#   %-15s %10.4f s %6.1f%%  (coordinator GC, inside the rows above)\n" "gc" gc
    (100. *. gc /. wall)

(* [golden]: the committed digest at the default seed; at any other seed
   the generic path is run live and becomes the reference. *)
let measure o (w : Workloads.t) ~golden =
  let inp = Harness.inputs w ~seed:o.seed ~quick:o.quick in
  (* --quick is a smoke run: the minimum number of rounds *)
  let seconds = if o.quick then 0. else o.seconds in
  let min_rounds = if o.quick then 2 else 3 in
  let measured, traced, generic, crypto =
    if not o.trace then
      let rs = rounds ~min_rounds ~seconds inp ~optimize:true in
      (rs, [], [], (0., 0.))
    else begin
      (* untraced, traced and generic thirds; only the first traced
         round keeps spans for the Chrome file *)
      let third = seconds /. 3. in
      let min_rounds = 2 in
      let a = rounds ~min_rounds ~seconds:third inp ~optimize:true in
      let crypto = crypto_times () in
      let gc = Trace.gc_start () in
      let sink = Trace.create ~cap:(if o.quick then 20_000 else 120_000) in
      let b = rounds ~trace:(gc, sink) ~min_rounds ~seconds:third inp ~optimize:true in
      Runtime_events.pause ();
      let c = rounds ~min_rounds ~seconds:third inp ~optimize:false in
      (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let path = Filename.concat trace_dir (w.name ^ ".trace.json") in
      Trace.write_chrome sink ~path;
      Printf.printf "# %s trace: %s (%d spans, %d GC events lost)\n" w.name path sink.Trace.n
        gc.Trace.tot.lost;
      (a, b, c, crypto)
    end
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  (* the reference digest: the committed golden at the default seed,
     else the generic path run live *)
  let reference =
    match (golden, generic) with
    | Some d, _ -> d
    | None, t :: _ -> t.r.digest
    | None, [] -> (Harness.round inp ~optimize:false).digest
  in
  let all = List.map (fun t -> t.r) (measured @ traced @ generic) in
  let bad = List.filter (fun (r : Harness.round) -> r.digest <> reference || r.truncated) all in
  let correct = bad = [] in
  List.iter
    (fun (r : Harness.round) ->
      Printf.printf "# %s MISMATCH: digest %s%s, reference %s\n" w.name r.digest
        (if r.truncated then " (truncated)" else "") reference)
    bad;
  let e2e = e2e_metrics measured ~heap_mb in
  let r0 = (List.hd measured).r in
  Printf.printf "# %s: seed %d, %d measured rounds of %d ops (%d sessions), digest %s (%s)\n"
    w.name o.seed (List.length measured) r0.scheduled inp.sessions r0.digest
    (match golden with Some _ -> "golden" | None -> "live generic reference");
  Printf.printf "# %s per round: %d resp samples, %d op-gap samples, %d ops never delivered\n"
    w.name r0.scheduled (Bigarray.Array1.dim r0.gaps) r0.failed;
  List.iteri
    (fun i t ->
      let raw = { t with host = 1. } in
      Printf.printf
        "# %s round %d (raw, host %.3f): %.0f ops/s, resp p50/p99 %.4f/%.4f ms, op p50/p90 \
         %.3f/%.3f us, setup %.4f s\n"
        w.name i t.host (throughput raw)
        (ns_to (pooled resp [ raw ] 50.) 1e6) (ns_to (pooled resp [ raw ] 99.) 1e6)
        (ns_to (pooled gaps [ raw ] 50.) 1e3) (ns_to (pooled gaps [ raw ] 90.) 1e3)
        (ns_to t.r.setup_ns 1e9))
    measured;
  List.iter (fun (k, v) -> print_metric w.name k v) e2e;
  let attempted = List.fold_left (fun a (r : Harness.round) -> a + r.scheduled) 0 all in
  let failed = List.fold_left (fun a (r : Harness.round) -> a + r.failed) 0 all in
  let json_metrics =
    match traced with
    | [] -> e2e
    | _ ->
      let layers = layer_medians traced in
      let op_us = List.assoc "op_us_p50" e2e in
      let generic_op_us = ns_to (pooled gaps (faster_half generic) 50.) 1e3 in
      let untraced_ops = List.assoc "ops_per_s" e2e in
      let traced_ops = List.assoc "ops_per_s" (e2e_metrics traced ~heap_mb) in
      let layers =
        layers
        @ [
            ("optimizer.reopt_ms", med (fun t -> ns_to t.r.reopt_ns 1e6) traced);
            ("optimizer.wall_gain", if op_us > 0. then generic_op_us /. op_us else 0.);
            ("trace.overhead", if traced_ops > 0. then (untraced_ops /. traced_ops) -. 1. else 0.);
          ]
        @
        let des_us, hmac_us = crypto in
        [
          ("crypto.des_us", des_us);
          ("crypto.hmac_md5_us", hmac_us);
          ("crypto.share_est",
           if w.crypto_per_op && op_us > 0. then (des_us +. hmac_us) /. op_us else 0.);
        ]
      in
      print_self_time w.name traced;
      Printf.printf "# %s tracing overhead: untraced %.0f ops/s, traced %.0f ops/s\n" w.name
        untraced_ops traced_ops;
      let layers = List.map (fun x -> (x.name, List.assoc x.name layers)) per_layer in
      List.iter (fun (k, v) -> print_metric w.name k v) layers;
      layers
  in
  print_json ~correct ~attempted ~failed json_metrics;
  if correct then 0 else 1

(* At the default seed the committed digest must be there: without it
   the output check would be skipped. *)
let run_one o (w : Workloads.t) =
  if o.seed <> default_seed then measure o w ~golden:None
  else
    match golden_digest w ~quick:o.quick with
    | Ok d -> measure o w ~golden:(Some d)
    | Error e ->
      prerr_endline ("main.exe: " ^ e ^ " (run from the repository root)");
      1

(* --- fresh processes ------------------------------------------------------------ *)

(* The workloads of a run share its [--seconds]. *)
let child_args o (w : Workloads.t) =
  let seconds = o.seconds /. float_of_int (List.length o.workloads) in
  [ "run"; "--workload"; w.name; "--seed"; string_of_int o.seed;
    "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if o.trace then "1" else "0") ]
  @ if o.quick then [ "--quick" ] else []

type child = {
  metrics : (string * float) list;
  ok : bool;  (* exited 0 *)
  attempted : int;
  failed : int;
}

(* Run one workload in a child process; echo its output, and collect
   its metric lines and the counts of its JSON line. *)
let spawn args =
  let r, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr r in
  let rec read c =
    match input_line ic with
    | exception End_of_file -> { c with metrics = List.rev c.metrics }
    | "" -> read c
    | line when line.[0] = '{' ->
      (match
         Scanf.sscanf line {|{"correct": %B, "attempted": %d, "failed": %d|} (fun _ a f -> (a, f))
       with
       | attempted, failed -> read { c with attempted; failed }
       | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> read c)
    | line ->
      print_endline line;
      (match String.split_on_char ' ' line with
       | [ _; name; v; _ ] when line.[0] <> '#' ->
         (match float_of_string_opt v with
          | Some v -> read { c with metrics = (name, v) :: c.metrics }
          | None -> read c)
       | _ -> read c)
  in
  let c = read { metrics = []; ok = false; attempted = 0; failed = 0 } in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  { c with ok = status = Unix.WEXITED 0 }

let run_children o =
  let results =
    List.concat_map
      (fun (w : Workloads.t) ->
        let runs = List.init o.repeat (fun _ -> spawn (child_args o w)) in
        if o.repeat > 1 then begin
          Printf.printf "# %s: median and IQR over %d fresh runs\n" w.name o.repeat;
          match runs with
          | [] -> ()
          | first :: _ ->
            List.iter
              (fun (name, _) ->
                let xs = List.filter_map (fun c -> List.assoc_opt name c.metrics) runs in
                let md = median xs and q1, q3 = quartiles xs in
                Printf.printf "%s %s %.12g %s iqr %.6g (%.1f%% of median)\n" w.name name md
                  (unit_of name) (q3 -. q1)
                  (if md = 0. then 0. else 100. *. (q3 -. q1) /. Float.abs md))
              first.metrics
        end;
        List.map (fun c -> (w.name, c)) runs)
      o.workloads
  in
  let ok = List.for_all (fun (_, c) -> c.ok) results in
  let metrics =
    if o.repeat > 1 then []
    else List.concat_map (fun (w, c) -> List.map (fun (k, v) -> (w ^ ":" ^ k, v)) c.metrics) results
  in
  let sum f = List.fold_left (fun a (_, c) -> a + f c) 0 results in
  print_json ~correct:ok ~attempted:(sum (fun c -> c.attempted))
    ~failed:(sum (fun c -> c.failed)) metrics;
  if ok then 0 else 1

(* --- golden ------------------------------------------------------------------------ *)

let golden () =
  print_endline
    "# observables digests from the generic path at the default seed (main.exe golden)";
  List.iter
    (fun quick ->
      List.iter
        (fun (w : Workloads.t) ->
          let inp = Harness.inputs w ~seed:default_seed ~quick in
          let r = Harness.round inp ~optimize:false in
          if r.truncated then failwith (w.name ^ ": truncated reference run");
          Printf.printf "%s %s %s\n%!" w.name (size_name quick) r.digest)
        Workloads.all)
    [ false; true ];
  0

(* --- command line ---------------------------------------------------------------- *)

let usage () =
  prerr_endline
    ("usage: main.exe run [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1]\n\
     \                    [--quick] [--repeat N]\n\
     \       main.exe golden\n\
      workloads: " ^ String.concat ", " (Workloads.names ()));
  2

let parse args =
  let o =
    ref
      {
        workloads = Workloads.all;
        seed = default_seed;
        seconds = default_seconds;
        trace = false;
        quick = false;
        repeat = 1;
      }
  in
  let rec go = function
    | [] -> Ok ()
    | "--workload" :: "all" :: rest -> go rest
    | "--workload" :: name :: rest ->
      (match Workloads.find name with
       | Some w -> o := { !o with workloads = [ w ] }; go rest
       | None -> Error ("unknown workload " ^ name))
    | "--seed" :: s :: rest ->
      (match int_of_string_opt s with
       | Some seed -> o := { !o with seed }; go rest
       | None -> Error ("bad seed " ^ s))
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some seconds when seconds >= 0. -> o := { !o with seconds }; go rest
       | _ -> Error ("bad seconds " ^ s))
    | "--trace" :: ("0" | "1" as t) :: rest -> o := { !o with trace = t = "1" }; go rest
    | "--quick" :: rest -> o := { !o with quick = true }; go rest
    | "--repeat" :: n :: rest ->
      (match int_of_string_opt n with
       | Some repeat when repeat >= 1 -> o := { !o with repeat }; go rest
       | _ -> Error ("bad repeat " ^ n))
    | arg :: _ -> Error ("unexpected argument " ^ arg)
  in
  Result.map (fun () -> !o) (go args)

let () =
  let code =
    match Array.to_list Sys.argv with
    | _ :: "golden" :: [] -> golden ()
    | _ :: "run" :: args ->
      (match parse args with
       | Error e ->
         prerr_endline ("main.exe: " ^ e);
         usage ()
       | Ok o ->
         (match o.workloads with
          | [ w ] when o.repeat = 1 -> run_one o w
          | _ -> run_children o))
    | _ -> usage ()
  in
  exit code
