(* The persistent profile store: per-shard adaptive state serialized so
   one run's profile can warm-start the next — the off-line half of the
   paper's collect/analyze/optimize cycle, made durable.

   Same framing conventions as Podopt_profile.Trace_io and
   Podopt_replay.Log: one record per line, whitespace-separated fields,
   [#] comments, a [Format_error] on anything malformed.

   Format (version 3; any other version is refused):

     V 3
     E <id> <kind> <shard> <dispatched> <trace_entries>   entry header
     N <event> <occurrences> <sync> <async> <timed>       graph node
     G <src> <dst> <weight> <sync> <async> <timed>        graph edge
     C <event> <event> ...                                hot chain
     H <event> <handler> <handler> ...                    binding signature

   One entry per (run, shard).  An entry's [id] is the CRC-32 of its
   canonical body (every line after the id field, in canonical order),
   so the id names the *content*: two identical observations collapse to
   one entry.  A store is the id-sorted set of its entries, which makes
   [merge] a plain set union — associative, commutative, idempotent, and
   byte-identical under any merge order (the Metrics/Hist merge
   discipline, strengthened to idempotence for cross-run use).

   Merging does not sum counters across entries; [aggregate] does that
   at warm-start time, where conflicting binding signatures for an event
   also surface (such events are dropped from the warm plan — the stale
   path). *)

open Podopt_profile
module Crc32 = Podopt_crypto.Crc32

exception Format_error of string

let format_error fmt = Format.kasprintf (fun s -> raise (Format_error s)) fmt
let version = 3

type entry = {
  id : string;            (* crc32 (hex) of the canonical body below *)
  kind : string;          (* workload kind, e.g. "seccomm" *)
  shard : int;
  dispatched : int;       (* ops the shard served while profiling *)
  trace_entries : int;    (* trace entries folded into the graph *)
  graph : Event_graph.t;
  chains : string list list;            (* hot chains at capture time *)
  handlers : (string * string list) list;
      (* event -> ordered handler names at capture time *)
}

type t = entry list  (* sorted by (id, kind, shard); no duplicate ids *)

let entries (t : t) = t

(* --- canonical rendering ----------------------------------------------- *)

let check_name what name =
  if name = "" then format_error "empty %s name" what;
  String.iter
    (fun c ->
      if c = ' ' || c = '\t' || c = '\n' then
        format_error "%s name %S contains whitespace" what name)
    name

(* The canonical body: deterministic line order regardless of hashtable
   iteration or capture order, so equal observations render equal bytes
   (and therefore equal ids). *)
let body_lines (e : entry) : string list =
  check_name "kind" e.kind;
  let header =
    Printf.sprintf "E %s %d %d %d" e.kind e.shard e.dispatched e.trace_entries
  in
  let nodes =
    Event_graph.nodes e.graph
    |> List.sort (fun (a : Event_graph.node) b -> compare a.Event_graph.name b.Event_graph.name)
    |> List.map (fun (n : Event_graph.node) ->
           check_name "event" n.Event_graph.name;
           Printf.sprintf "N %s %d %d %d %d" n.Event_graph.name n.occurrences
             n.raised_sync n.raised_async n.raised_timed)
  in
  let edges =
    Event_graph.edges e.graph
    |> List.sort (fun (a : Event_graph.edge) b ->
           compare (a.Event_graph.src, a.Event_graph.dst) (b.Event_graph.src, b.Event_graph.dst))
    |> List.map (fun (ed : Event_graph.edge) ->
           check_name "event" ed.Event_graph.src;
           check_name "event" ed.Event_graph.dst;
           Printf.sprintf "G %s %s %d %d %d %d" ed.Event_graph.src ed.Event_graph.dst
             ed.weight ed.sync ed.async ed.timed)
  in
  let chains =
    List.sort compare e.chains
    |> List.map (fun chain ->
           if chain = [] then format_error "empty chain";
           List.iter (check_name "event") chain;
           "C " ^ String.concat " " chain)
  in
  let handlers =
    List.sort compare e.handlers
    |> List.map (fun (event, hs) ->
           check_name "event" event;
           List.iter (check_name "handler") hs;
           if hs = [] then Printf.sprintf "H %s" event
           else Printf.sprintf "H %s %s" event (String.concat " " hs))
  in
  (header :: nodes) @ edges @ chains @ handlers

let digest_of_lines lines =
  Printf.sprintf "%08x" (Crc32.of_string (String.concat "\n" lines))

(* Build an entry, computing its content id. *)
let make_entry ~kind ~shard ~dispatched ~trace_entries ~graph ~chains
    ~handlers () =
  let e =
    { id = ""; kind; shard; dispatched; trace_entries; graph; chains; handlers }
  in
  { e with id = digest_of_lines (body_lines e) }

let compare_entry (a : entry) (b : entry) =
  compare (a.id, a.kind, a.shard) (b.id, b.kind, b.shard)

(* Id-keyed set union.  Entries with equal ids have (modulo CRC
   collision) equal content; keep one. *)
let of_entries es : t =
  let sorted = List.sort_uniq compare_entry es in
  let rec dedup = function
    | a :: (b :: _ as rest) when (a : entry).id = (b : entry).id -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

let merge (a : t) (b : t) : t = of_entries (a @ b)
let merge_all (ts : t list) : t = of_entries (List.concat ts)

(* --- encode ------------------------------------------------------------ *)

let to_string (t : t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# podopt profile store\n";
  Buffer.add_string buf (Printf.sprintf "V %d\n" version);
  List.iter
    (fun e ->
      let body = body_lines e in
      (* the id is stored, and re-derived from the body on load *)
      (match body with
       | header :: rest ->
         Buffer.add_string buf (Printf.sprintf "E %s%s\n" e.id
              (String.sub header 1 (String.length header - 1)));
         List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) rest
       | [] -> assert false))
    t;
  Buffer.contents buf

(* --- decode ------------------------------------------------------------ *)

let int_field what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> format_error "bad %s %S" what s

(* Raw parsed entry, before graph reconstruction. *)
type partial = {
  p_id : string;
  p_kind : string;
  p_shard : int;
  p_dispatched : int;
  p_trace : int;
  mutable p_nodes : (string * int * int * int * int) list;
  mutable p_edges : (string * string * int * int * int * int) list;
  mutable p_chains : string list list;
  mutable p_handlers : (string * string list) list;
}

let finish (p : partial) : entry =
  let graph = Event_graph.create () in
  List.iter
    (fun (name, occ, s, a, ti) ->
      let n = Event_graph.node graph name in
      n.Event_graph.occurrences <- occ;
      n.raised_sync <- s;
      n.raised_async <- a;
      n.raised_timed <- ti)
    (List.rev p.p_nodes);
  List.iter
    (fun (src, dst, w, s, a, ti) ->
      (* materialize the edge with its stored counters *)
      Event_graph.add_edge graph ~src ~dst Podopt_hir.Ast.Sync;
      match Event_graph.find_edge graph ~src ~dst with
      | None -> assert false
      | Some e ->
        e.Event_graph.weight <- w;
        e.sync <- s;
        e.async <- a;
        e.timed <- ti)
    (List.rev p.p_edges);
  (* add_edge bumped occurrence-less node creation only; restore counters
     happened above, but add_edge also created src/dst nodes with zero
     counters when the N lines were missing — acceptable: the id check
     below rejects any disagreement with the stored content *)
  let e =
    {
      id = p.p_id;
      kind = p.p_kind;
      shard = p.p_shard;
      dispatched = p.p_dispatched;
      trace_entries = p.p_trace;
      graph;
      chains = List.rev p.p_chains;
      handlers = List.rev p.p_handlers;
    }
  in
  let derived = digest_of_lines (body_lines e) in
  if derived <> p.p_id then
    format_error "entry id %s does not match its content (computed %s)" p.p_id derived;
  e

let of_string (s : string) : t =
  let saw_version = ref false in
  let current : partial option ref = ref None in
  let finished = ref [] in
  let close () =
    match !current with
    | Some p ->
      finished := finish p :: !finished;
      current := None
    | None -> ()
  in
  let in_entry what =
    match !current with
    | Some p -> p
    | None -> format_error "%s line outside any entry" what
  in
  let dispatch line =
    let fields = String.split_on_char ' ' line |> List.filter (( <> ) "") in
    match fields with
    | [] -> ()
    | [ "V"; v ] ->
      let v = int_field "version" v in
      if v <> version then
        format_error "unsupported store version %d (expected %d)" v version;
      saw_version := true
    | [ "E"; id; kind; shard; dispatched; trace ] ->
      if not !saw_version then format_error "E line before V line";
      close ();
      current :=
        Some
          {
            p_id = id;
            p_kind = kind;
            p_shard = int_field "shard" shard;
            p_dispatched = int_field "dispatched" dispatched;
            p_trace = int_field "trace_entries" trace;
            p_nodes = [];
            p_edges = [];
            p_chains = [];
            p_handlers = [];
          }
    | [ "N"; name; occ; sync; async; timed ] ->
      let p = in_entry "N" in
      p.p_nodes <-
        (name, int_field "occurrences" occ, int_field "sync" sync,
         int_field "async" async, int_field "timed" timed)
        :: p.p_nodes
    | [ "G"; src; dst; w; sync; async; timed ] ->
      let p = in_entry "G" in
      p.p_edges <-
        (src, dst, int_field "weight" w, int_field "sync" sync,
         int_field "async" async, int_field "timed" timed)
        :: p.p_edges
    | "C" :: (_ :: _ as events) ->
      let p = in_entry "C" in
      p.p_chains <- events :: p.p_chains
    | "H" :: event :: handlers ->
      let p = in_entry "H" in
      p.p_handlers <- (event, handlers) :: p.p_handlers
    | tag :: _ -> format_error "bad record tag %S in line %S" tag line
  in
  List.iter
    (fun raw ->
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then () else dispatch line)
    (String.split_on_char '\n' s);
  if not !saw_version then format_error "missing V line";
  close ();
  of_entries (List.rev !finished)

let save (path : string) (t : t) : unit =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load (path : string) : t =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))

(* --- aggregation (warm-start input) ------------------------------------ *)

type aggregate = {
  agg_graph : Event_graph.t;   (* counter sum of every matching entry *)
  agg_signatures : (string * string list) list;
      (* events whose stored binding signature is consistent *)
  agg_conflicts : string list; (* events with disagreeing signatures *)
  agg_entries : int;           (* entries folded in *)
}

(* Sum the graphs of every entry for [kind] and intersect the binding
   signatures: an event whose recorded handler lists disagree across
   entries is a conflict — the warm-start pass treats it as stale. *)
let aggregate ~kind (t : t) : aggregate =
  let matching = List.filter (fun e -> e.kind = kind) t in
  let agg_graph = Event_graph.merge_all (List.map (fun e -> e.graph) matching) in
  let sigs : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  let conflicts = ref [] in
  List.iter
    (fun e ->
      List.iter
        (fun (event, hs) ->
          match Hashtbl.find_opt sigs event with
          | None -> Hashtbl.add sigs event hs
          | Some prev when prev = hs -> ()
          | Some _ ->
            if not (List.mem event !conflicts) then conflicts := event :: !conflicts)
        e.handlers)
    matching;
  let conflicts = List.sort compare !conflicts in
  let signatures =
    Hashtbl.fold
      (fun event hs acc ->
        if List.mem event conflicts then acc else (event, hs) :: acc)
      sigs []
    |> List.sort compare
  in
  {
    agg_graph;
    agg_signatures = signatures;
    agg_conflicts = conflicts;
    agg_entries = List.length matching;
  }

(* --- reporting (the [podopt profile show] surface) --------------------- *)

let pp_entry ppf (e : entry) =
  Fmt.pf ppf "entry %s: kind %s, shard %d, dispatched %d, trace %d, %d events, %d edges@."
    e.id e.kind e.shard e.dispatched e.trace_entries
    (Event_graph.node_count e.graph)
    (Event_graph.edge_count e.graph);
  List.iter
    (fun chain -> Fmt.pf ppf "  chain: %s@." (String.concat " -> " chain))
    (List.sort compare e.chains);
  List.iter
    (fun (event, hs) ->
      Fmt.pf ppf "  handlers %s: %s@." event
        (if hs = [] then "(none)" else String.concat ", " hs))
    (List.sort compare e.handlers)

let pp ppf (t : t) =
  Fmt.pf ppf "profile store: %d entries@." (List.length t);
  List.iter (pp_entry ppf) t
