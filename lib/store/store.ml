(* The persistent profile store: per-shard adaptive state serialized so
   one run's profile can warm-start the next — the off-line half of the
   paper's collect/analyze/optimize cycle, made durable.

   The framing is Podopt_codec.Lines's, as for Podopt_profile.Trace_io
   and Podopt_replay.Log: one record per line, whitespace-separated
   fields, [#] comments, a [V] line, a [Lines.Format_error] on anything
   malformed.

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
module Lines = Podopt_codec.Lines

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

(* The canonical body: deterministic line order regardless of hashtable
   iteration or capture order, so equal observations render equal bytes
   (and therefore equal ids). *)
let body_lines (e : entry) : string list =
  Lines.check_name "kind" e.kind;
  let header =
    Printf.sprintf "E %s %d %d %d" e.kind e.shard e.dispatched e.trace_entries
  in
  let nodes =
    Event_graph.nodes e.graph
    |> List.sort (fun (a : Event_graph.node) b -> compare a.Event_graph.name b.Event_graph.name)
    |> List.map (fun (n : Event_graph.node) ->
           Lines.check_name "event" n.Event_graph.name;
           Printf.sprintf "N %s %d %d %d %d" n.Event_graph.name n.occurrences
             n.raised_sync n.raised_async n.raised_timed)
  in
  let edges =
    Event_graph.edges e.graph
    |> List.sort (fun (a : Event_graph.edge) b ->
           compare (a.Event_graph.src, a.Event_graph.dst) (b.Event_graph.src, b.Event_graph.dst))
    |> List.map (fun (ed : Event_graph.edge) ->
           Lines.check_name "event" ed.Event_graph.src;
           Lines.check_name "event" ed.Event_graph.dst;
           Printf.sprintf "G %s %s %d %d %d %d" ed.Event_graph.src ed.Event_graph.dst
             ed.weight ed.sync ed.async ed.timed)
  in
  let chains =
    List.sort compare e.chains
    |> List.map (fun chain ->
           if chain = [] then Lines.error "empty chain";
           List.iter (Lines.check_name "event") chain;
           "C " ^ String.concat " " chain)
  in
  let handlers =
    List.sort compare e.handlers
    |> List.map (fun (event, hs) ->
           Lines.check_name "event" event;
           List.iter (Lines.check_name "handler") hs;
           if hs = [] then Printf.sprintf "H %s" event
           else Printf.sprintf "H %s %s" event (String.concat " " hs))
  in
  (header :: nodes) @ edges @ chains @ handlers

let digest_of_lines lines = Lines.digest (String.concat "\n" lines)

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

(* Every entry's stored id must be the one its content derives. *)
let check_id (e : entry) =
  let derived = digest_of_lines (body_lines e) in
  if derived <> e.id then
    Lines.error "entry id %s does not match its content (computed %s)" e.id derived;
  e

(* N and G lines go straight into the open entry's graph; its chains
   and handlers collect in reverse until the entry closes. *)
let of_string (s : string) : t =
  let current : entry option ref = ref None in
  let finished = ref [] in
  let close () =
    Option.iter
      (fun e ->
        finished :=
          check_id { e with chains = List.rev e.chains; handlers = List.rev e.handlers }
          :: !finished)
      !current;
    current := None
  in
  let in_entry what =
    match !current with
    | Some e -> e
    | None -> Lines.error "%s line outside any entry" what
  in
  let record line fields =
    match fields with
    | [] -> ()
    | [ "E"; id; kind; shard; dispatched; trace ] ->
      close ();
      current :=
        Some
          {
            id;
            kind;
            shard = Lines.int "shard" shard;
            dispatched = Lines.int "dispatched" dispatched;
            trace_entries = Lines.int "trace_entries" trace;
            graph = Event_graph.create ();
            chains = [];
            handlers = [];
          }
    | [ "N"; name; occ; sync; async; timed ] ->
      let n = Event_graph.node (in_entry "N").graph name in
      n.Event_graph.occurrences <- Lines.int "occurrences" occ;
      n.raised_sync <- Lines.int "sync" sync;
      n.raised_async <- Lines.int "async" async;
      n.raised_timed <- Lines.int "timed" timed
    | [ "G"; src; dst; w; sync; async; timed ] ->
      let e = Event_graph.edge (in_entry "G").graph ~src ~dst in
      e.Event_graph.weight <- Lines.int "weight" w;
      e.sync <- Lines.int "sync" sync;
      e.async <- Lines.int "async" async;
      e.timed <- Lines.int "timed" timed
    | "C" :: (_ :: _ as events) ->
      let e = in_entry "C" in
      current := Some { e with chains = events :: e.chains }
    | "H" :: event :: handlers ->
      let e = in_entry "H" in
      current := Some { e with handlers = (event, handlers) :: e.handlers }
    | tag :: _ -> Lines.error "bad record tag %S in line %S" tag line
  in
  Lines.iter ~version:("store", version) record s;
  close ();
  of_entries (List.rev !finished)

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
