(* Event-path extraction from a reduced event graph.

   An event path of weight [w] is a path in which no edge has weight below
   [w] (Sec. 3.1); after reduction every remaining edge qualifies, so the
   job here is to enumerate the *maximal linear* paths — the unambiguous
   sequences, where each interior node has exactly one successor and the
   next node exactly one predecessor.  Those are the candidates handed to
   handler-level profiling. *)

type path = string list

(* Maximal linear paths ("unitigs") of the graph. *)
let linear_paths (g : Event_graph.t) : path list =
  let nodes = List.map (fun n -> n.Event_graph.name) (Event_graph.nodes g) in
  let nodes = List.sort compare nodes in
  let unique_succ name =
    match Event_graph.successors g name with
    | [ e ] -> Some e.Event_graph.dst
    | _ -> None
  in
  let unique_pred name =
    match Event_graph.predecessors g name with
    | [ e ] -> Some e.Event_graph.src
    | _ -> None
  in
  (* a node starts a path if it cannot be linearly extended backwards *)
  let starts_path name =
    match unique_pred name with
    | None -> true
    | Some p ->
      (match unique_succ p with
       | Some s -> s <> name
       | None -> true)
  in
  let rec extend acc name =
    match unique_succ name with
    | Some next when unique_pred next = Some name && not (List.mem next acc) ->
      extend (next :: acc) next
    | _ -> List.rev acc
  in
  List.filter_map
    (fun name ->
      if starts_path name then
        match extend [ name ] name with
        | [ _ ] -> None (* single nodes are not paths *)
        | p -> Some p
      else None)
    nodes

(* The minimum edge weight along a path (defined as the path's weight). *)
let path_weight (g : Event_graph.t) (p : path) : int =
  let rec go = function
    | a :: (b :: _ as rest) ->
      (match Event_graph.find_edge g ~src:a ~dst:b with
       | Some e -> min e.Event_graph.weight (go rest)
       | None -> 0)
    | [ _ ] | [] -> max_int
  in
  match p with [] | [ _ ] -> 0 | _ -> go p
