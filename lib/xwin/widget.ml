(* Widgets: the building blocks of X clients (Sec. 2.3).

   A widget has geometry (used for pointer routing), an event mask, a
   translation table (event -> action names), per-widget event handlers
   (the most primitive mechanism) and named callback lists.  Actions have
   client-global scope; event handlers and callbacks are scoped to their
   widget — the three mechanisms and scopes described in the paper. *)

type t = {
  id : int;
  name : string;
  class_ : string;
  mutable x : int;
  mutable y : int;
  mutable width : int;
  mutable height : int;
  mutable mapped : bool;   (* visible on screen *)
  mutable parent : t option;
  mutable children : t list;
  mutable event_mask : int;
  mutable translations : Translation.t;
  (* event kind -> HIR handler procedures, the primitive mechanism *)
  mutable event_handlers : (Xevent.kind * string) list;
  (* callback name -> HIR procedures, executed in registration order *)
  mutable callbacks : (string * string list) list;
}

let next_id = ref 0

let create ?(x = 0) ?(y = 0) ?(width = 100) ?(height = 100) ~name ~class_ () =
  incr next_id;
  {
    id = !next_id;
    name;
    class_;
    x;
    y;
    width;
    height;
    mapped = false;
    parent = None;
    children = [];
    event_mask = 0;
    translations = [];
    event_handlers = [];
    callbacks = [];
  }

let add_child parent child =
  child.parent <- Some parent;
  parent.children <- parent.children @ [ child ]

let map w = w.mapped <- true
let unmap w = w.mapped <- false

let select_events w kinds =
  w.event_mask <- w.event_mask lor Xevent.mask_of_kinds kinds

let set_translations w table = w.translations <- table

let add_event_handler w kind proc =
  w.event_handlers <- w.event_handlers @ [ (kind, proc) ];
  select_events w [ kind ]

let add_callback w ~name proc =
  match List.assoc_opt name w.callbacks with
  | Some _ ->
    w.callbacks <-
      List.map (fun (n, ps) -> if n = name then (n, ps @ [ proc ]) else (n, ps)) w.callbacks
  | None -> w.callbacks <- w.callbacks @ [ (name, [ proc ]) ]

(* absolute geometry *)
let rec abs_origin w =
  match w.parent with
  | None -> (w.x, w.y)
  | Some p ->
    let px, py = abs_origin p in
    (px + w.x, py + w.y)

let contains w ~x ~y =
  let ax, ay = abs_origin w in
  x >= ax && x < ax + w.width && y >= ay && y < ay + w.height

(* Deepest mapped descendant containing the point, preferring later
   (topmost) children. *)
let rec pick w ~x ~y : t option =
  if not (w.mapped && contains w ~x ~y) then None
  else
    let hit =
      List.fold_left
        (fun acc child -> match pick child ~x ~y with Some c -> Some c | None -> acc)
        None w.children
    in
    match hit with Some c -> Some c | None -> Some w

let rec find_by_id w id : t option =
  if w.id = id then Some w
  else
    List.fold_left
      (fun acc c -> match acc with Some _ -> acc | None -> find_by_id c id)
      None w.children

let rec iter f w =
  f w;
  List.iter (iter f) w.children
