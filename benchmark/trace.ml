(* Spans kept in memory during a traced round and written out as one
   Chrome trace-event file (chrome://tracing, Perfetto) when the run
   ends, plus GC phases read in-process through Runtime_events.

   Lanes: 0 is the coordinator (step, session.pump, front.pump, drain);
   100 + i is shard i (one op span per delivery); 200 + r is runtime
   events ring r, i.e. one domain's GC. *)

open Bigarray

type ibuf = (int, int_elt, c_layout) Array1.t

let names = [| "step"; "session.pump"; "front.pump"; "drain"; "op"; "gc.minor"; "gc.major" |]
let step = 0
let session = 1
let front = 2
let drain = 3
let op = 4
let gc_minor = 5
let gc_major = 6

(* Off-heap (lane, name, start, stop) quadruples, capped so a long round
   cannot grow the file without bound. *)
type t = { buf : ibuf; cap : int; mutable n : int }

let create ~cap =
  { buf = Array1.create int c_layout (4 * max cap 1); cap; n = 0 }

let add t ~lane ~name ~start ~stop =
  if t.n < t.cap then begin
    let o = 4 * t.n in
    t.buf.{o} <- lane;
    t.buf.{o + 1} <- name;
    t.buf.{o + 2} <- start;
    t.buf.{o + 3} <- stop;
    t.n <- t.n + 1
  end

(* Copy every span of [src] into [t] (up to [t]'s cap). *)
let append t src =
  for i = 0 to src.n - 1 do
    let o = 4 * i in
    add t ~lane:src.buf.{o} ~name:src.buf.{o + 1} ~start:src.buf.{o + 2} ~stop:src.buf.{o + 3}
  done

let lane_name lane =
  if lane = 0 then "coordinator"
  else if lane < 200 then Printf.sprintf "shard %d" (lane - 100)
  else Printf.sprintf "gc ring %d" (lane - 200)

(* Timestamps are monotonic ns; the file wants microseconds, relative
   to the earliest span. *)
let write_chrome t ~path =
  let origin = ref max_int in
  for i = 0 to t.n - 1 do
    origin := min !origin t.buf.{(4 * i) + 2}
  done;
  let origin = !origin in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "[";
      let lanes = Hashtbl.create 16 in
      let first = ref true in
      let sep () = if !first then first := false else output_string oc ",\n" in
      for i = 0 to t.n - 1 do
        let o = 4 * i in
        let lane = t.buf.{o} and start = t.buf.{o + 2} in
        Hashtbl.replace lanes lane ();
        sep ();
        Printf.fprintf oc
          {|{"name":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f}|}
          names.(t.buf.{o + 1}) lane
          (float_of_int (start - origin) /. 1e3)
          (float_of_int (t.buf.{o + 3} - start) /. 1e3)
      done;
      Hashtbl.iter
        (fun lane () ->
          sep ();
          Printf.fprintf oc
            {|{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":"%s"}}|}
            lane (lane_name lane))
        lanes;
      output_string oc "]\n")

(* --- GC phases via Runtime_events ------------------------------------

   Started once per process, by a traced run.  The ring file
   ([<pid>.events] in the working directory) is removed by the runtime
   at exit.  Only the outermost phases are summed — EV_MINOR for a minor
   collection and EV_MAJOR_SLICE for a major slice — so nested
   sub-phases are not counted twice. *)

let max_rings = 128

type gc_totals = {
  minor_open : int array;  (* per ring: begin stamp, -1 when closed *)
  major_open : int array;
  mutable minor_ns : int;  (* summed over every ring *)
  mutable major_ns : int;
  mutable ring0_ns : int;  (* coordinator domain only: the self-time table's gc row *)
  mutable lost : int;
  mutable sink : t option;
}

type gc = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  tot : gc_totals;
}

let gc_start () =
  Runtime_events.start ();
  let tot =
    {
      minor_open = Array.make max_rings (-1);
      major_open = Array.make max_rings (-1);
      minor_ns = 0;
      major_ns = 0;
      ring0_ns = 0;
      lost = 0;
      sink = None;
    }
  in
  let ts x = Int64.to_int (Runtime_events.Timestamp.to_int64 x) in
  let slot = function
    | Runtime_events.EV_MINOR -> Some (tot.minor_open, gc_minor)
    | Runtime_events.EV_MAJOR_SLICE -> Some (tot.major_open, gc_major)
    | _ -> None
  in
  let runtime_begin ring t phase =
    match slot phase with
    | Some (opened, _) when ring < max_rings -> opened.(ring) <- ts t
    | _ -> ()
  in
  let runtime_end ring t phase =
    match slot phase with
    | Some (opened, name) when ring < max_rings && opened.(ring) >= 0 ->
      let start = opened.(ring) and stop = ts t in
      opened.(ring) <- -1;
      let d = stop - start in
      if name = gc_minor then tot.minor_ns <- tot.minor_ns + d
      else tot.major_ns <- tot.major_ns + d;
      if ring = 0 then tot.ring0_ns <- tot.ring0_ns + d;
      Option.iter (fun s -> add s ~lane:(200 + ring) ~name ~start ~stop) tot.sink
    | _ -> ()
  in
  let lost_events _ring n = tot.lost <- tot.lost + n in
  {
    cursor = Runtime_events.create_cursor None;
    callbacks =
      Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    tot;
  }

let gc_poll g = ignore (Runtime_events.read_poll g.cursor g.callbacks None)

(* Start a fresh accounting window (events already in the ring are
   consumed first, so they land in the previous window). *)
let gc_reset g ~sink =
  gc_poll g;
  g.tot.minor_ns <- 0;
  g.tot.major_ns <- 0;
  g.tot.ring0_ns <- 0;
  g.tot.sink <- sink
