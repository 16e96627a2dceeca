(** Event-path extraction from a (reduced) event graph (Sec. 3.1).

    After threshold reduction every remaining edge has weight >= W, so an
    event path is any path in the reduced graph; the useful ones are the
    maximal {e linear} paths, where each interior node has exactly one
    successor and the next node exactly one predecessor. *)

type path = string list

(** Maximal linear paths (each of length >= 2). *)
val linear_paths : Event_graph.t -> path list

(** Minimum edge weight along the path (0 if an edge is missing; paths
    shorter than 2 have weight 0). *)
val path_weight : Event_graph.t -> path -> int
