(* An X client: widget tree + event queue + the three handler mechanisms
   mapped onto the event runtime.

   Mapping (documented in DESIGN.md):
   - a translation firing with action sequence [a1; a2] raises the runtime
     event "ACT__a1__a2" whose bound handlers are the action procedures in
     sequence — so "two action handlers triggered in sequence" (the
     paper's Popup and Scroll scenarios) is one event with two handlers,
     the handler-merging shape of Fig. 7;
   - a widget event handler for kind K on widget W is bound to
     "XEV__W__K";
   - callback list C of widget W is bound to "CB__W__C"; widget code
     invokes callbacks by raising that event synchronously, which is the
     paper's "optimize one step further by opening up callbacks". *)

open Podopt_eventsys
module V = Podopt_hir.Value

type t = {
  runtime : Runtime.t;
  root : Widget.t;
  queue : Xevent.t Queue.t;
  actions : (string, string) Hashtbl.t;  (* action name -> HIR proc *)
  mutable action_events : string list;   (* created "ACT__..." event names *)
  mutable focus : Widget.t option;
  mutable timeout_count : int;
  mutable dispatched : int;
}

let action_event_name (actions : string list) = "ACT__" ^ String.concat "__" actions
let xev_event_name (w : Widget.t) kind =
  Printf.sprintf "XEV__%s__%s" w.Widget.name (Xevent.kind_to_string kind)
let callback_event_name ~widget ~callback = Printf.sprintf "CB__%s__%s" widget callback

let create ?costs ~(root : Widget.t) () : t =
  Xprims.install ();
  {
    runtime = Runtime.create ?costs ();
    root;
    queue = Queue.create ();
    actions = Hashtbl.create 16;
    action_events = [];
    focus = None;
    timeout_count = 0;
    dispatched = 0;
  }

let add_program (t : t) (src : string) : unit =
  Runtime.set_program t.runtime (Runtime.program t.runtime @ Podopt_hir.Parse.program src)

exception Unknown_action of string

let register_action (t : t) ~(name : string) ~(proc : string) : unit =
  Hashtbl.replace t.actions name proc

(* Bind the runtime events for every translation, event handler and
   callback in the widget tree.  Call after building the tree ("realize"
   in Xt terms). *)
let realize (t : t) : unit =
  Widget.iter
    (fun w ->
      List.iter
        (fun (entry : Translation.entry) ->
          let ev = action_event_name entry.Translation.actions in
          if not (List.mem ev t.action_events) then begin
            t.action_events <- ev :: t.action_events;
            List.iteri
              (fun i action ->
                match Hashtbl.find_opt t.actions action with
                | Some proc ->
                  Runtime.bind t.runtime ~event:ev ~order:((i + 1) * 10)
                    (Handler.hir action ~proc)
                | None -> raise (Unknown_action action))
              entry.Translation.actions
          end)
        w.Widget.translations;
      List.iter
        (fun (kind, proc) ->
          Runtime.bind t.runtime ~event:(xev_event_name w kind) (Handler.hir proc ~proc))
        w.Widget.event_handlers;
      List.iter
        (fun (cb_name, procs) ->
          List.iter
            (fun proc ->
              Runtime.bind t.runtime
                ~event:(callback_event_name ~widget:w.Widget.name ~callback:cb_name)
                (Handler.hir proc ~proc))
            procs)
        w.Widget.callbacks)
    t.root

let set_focus (t : t) (w : Widget.t) = t.focus <- Some w

(* Queue an event from the (simulated) server. *)
let post (t : t) (ev : Xevent.t) : unit = Queue.add ev t.queue

let route (t : t) (ev : Xevent.t) : Widget.t option =
  if ev.Xevent.window <> 0 then Widget.find_by_id t.root ev.Xevent.window
  else
    match ev.Xevent.kind with
    | Xevent.KeyPress | Xevent.KeyRelease -> t.focus
    | _ -> Widget.pick t.root ~x:ev.Xevent.x ~y:ev.Xevent.y

let event_args (ev : Xevent.t) =
  [ V.Int ev.Xevent.x; V.Int ev.Xevent.y; V.Int ev.Xevent.detail ]

(* Dispatch one queued event: primitive event handlers first (if the
   widget selected the kind), then the first matching translation. *)
let process_one (t : t) : bool =
  match Queue.take_opt t.queue with
  | None -> false
  | Some ev ->
    (match route t ev with
     | None -> ()
     | Some w ->
       t.dispatched <- t.dispatched + 1;
       if
         Xevent.selects w.Widget.event_mask ev.Xevent.kind
         && List.mem_assoc ev.Xevent.kind w.Widget.event_handlers
       then Runtime.raise_sync t.runtime (xev_event_name w ev.Xevent.kind) (event_args ev);
       (match Translation.lookup w.Widget.translations ev with
        | Some actions ->
          Runtime.raise_sync t.runtime (action_event_name actions) (event_args ev)
        | None -> ()));
    true

let rec process_all (t : t) : unit = if process_one t then process_all t

(* Xt-style timeout: run [proc] after [delay] virtual time units. *)
let add_timeout (t : t) ~(delay : int) ~(proc : string) : unit =
  t.timeout_count <- t.timeout_count + 1;
  let ev = Printf.sprintf "TIMEOUT__%d" t.timeout_count in
  Runtime.bind t.runtime ~event:ev (Handler.hir proc ~proc);
  Runtime.raise_timed t.runtime ev ~delay []

(* Drain timed/async work (timeouts, deferred redraws). *)
let run_pending ?until (t : t) = Runtime.run ?until t.runtime

(* Mean response time (virtual units) for a translation's action event:
   the Fig. 13 metric. *)
let action_response_time (t : t) (actions : string list) : float =
  let ev = action_event_name actions in
  let total = Runtime.event_processing_time t.runtime ev in
  let count = Runtime.event_dispatch_count t.runtime ev in
  if count = 0 then 0.0 else float_of_int total /. float_of_int count
