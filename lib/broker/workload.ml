(* Application workloads served by broker shards.  Dispatch mirrors the
   apps' own drivers (Ctp.send / Secure_messenger push_collect + pop /
   Chat_room.push / Editor action posts) so shard traffic raises the
   exact event vocabulary the optimizer's chains cover. *)

open Podopt_eventsys
module Player = Podopt_apps.Video_player
module Messenger = Podopt_apps.Secure_messenger
module Chat_room = Podopt_apps.Chat_room
module Editor = Podopt_apps.Editor

type kind = Video | Seccomm | Xwin | Chat

let kind_of_string = function
  | "video" -> Ok Video
  | "seccomm" -> Ok Seccomm
  | "xwin" -> Ok Xwin
  | "chat" -> Ok Chat
  | s ->
    Error
      (Printf.sprintf "unknown workload %S (expected video|seccomm|xwin|chat)" s)

let kind_to_string = function
  | Video -> "video"
  | Seccomm -> "seccomm"
  | Xwin -> "xwin"
  | Chat -> "chat"

(* A shard's live application.  Video/SecComm/Chat dispatch straight
   against a runtime; the X client keeps its widget tree and event
   queue in an [Editor.t] around the runtime, so the instance carries
   the whole client. *)
type instance = Rt of kind * Runtime.t | Gui of Editor.t

let instantiate = function
  | Video -> Rt (Video, Player.create ())
  | Seccomm -> Rt (Seccomm, Messenger.create ())
  | Chat -> Rt (Chat, Chat_room.create ())
  | Xwin ->
    let ed = Editor.create () in
    Gui ed

let runtime = function Rt (_, rt) -> rt | Gui ed -> Editor.runtime ed

(* --- Xwin payload encoding ---------------------------------------------
   byte 0: opcode (0 = scroll, 1 = keystroke, 2 = popup)
   byte 1: parameter (scroll height / key code / pointer offset)
   The storm mix leans on keystrokes the way an interactive session
   does: scroll, key, key, popup, repeating. *)

let xwin_opcode ~session ~seq =
  match (session + seq) mod 4 with 0 -> 0 | 3 -> 2 | _ -> 1

let xwin_payload ~session ~seq =
  let op = xwin_opcode ~session ~seq in
  let param =
    match op with
    | 0 -> 10 + (((session * 13) + (seq * 7)) mod 200)    (* scrollbar y *)
    | 1 -> 97 + (((session * 5) + seq) mod 26)            (* key a..z *)
    | _ -> ((session * 3) + seq) mod 40                   (* pointer offset *)
  in
  Bytes.init 8 (fun j ->
      if j = 0 then Char.chr op
      else if j = 1 then Char.chr (param land 0xff)
      else Char.chr (((session * 31) + seq + j) land 0xff))

(* Chat fan-out width: 2..7 members, varying per op so the amplification
   is data-dependent (byte 0 of the payload carries it). *)
let chat_fanout ~session ~seq = 2 + (((session * 31) + seq) mod 6)

let op_payload kind ~session ~seq =
  match kind with
  | Video -> Player.frame_payload ((session * 7) + seq + 1)
  | Seccomm -> Messenger.message ~size:256 ((session * 131) + seq)
  | Xwin -> xwin_payload ~session ~seq
  | Chat ->
    Chat_room.message ~fanout:(chat_fanout ~session ~seq) ~size:64
      ((session * 131) + seq)

(* The hot-path key of one op, as [serve --show-dead] labels a dead
   letter.  Video, SecComm and Chat serve a single op vocabulary, so the
   path is constant per kind; the X storm is multi-op and keys on the
   payload's opcode byte. *)
let path kind (payload : bytes) =
  match kind with
  | Video -> "video.frame"
  | Seccomm -> "seccomm.op"
  | Chat -> "chat.msg"
  | Xwin ->
    if Bytes.length payload = 0 then "xwin.key"
    else (
      match Char.code (Bytes.get payload 0) with
      | 0 -> "xwin.scroll"
      | 2 -> "xwin.popup"
      | _ -> "xwin.key")

let dispatch inst payload =
  match inst with
  | Rt (Video, rt) ->
    (* steady-state frames ride the high-priority path (the profiled
       SendMsg -> MsgFrmUserH -> SegFromUser -> Seg2Net chain) *)
    Podopt_ctp.Ctp.send rt ~priority:1 payload;
    Runtime.run rt
  | Rt (Seccomm, rt) ->
    let wire = Messenger.push_collect rt payload in
    Podopt_seccomm.Seccomm.pop rt wire
  | Rt (Chat, rt) -> Chat_room.push rt payload
  | Rt ((Xwin as k), _) ->
    (* unreachable: instantiate never builds Rt (Xwin, _) *)
    invalid_arg ("Workload.dispatch: bare runtime for " ^ kind_to_string k)
  | Gui ed ->
    if Bytes.length payload < 2 then Editor.keystroke_once ed ~key:97
    else (
      let param = Char.code (Bytes.get payload 1) in
      match Char.code (Bytes.get payload 0) with
      | 0 -> Editor.scroll_once ed ~y:(10 + param)
      | 2 -> Editor.popup_once ed ~at:(100 + param, 200 + param)
      | _ -> Editor.keystroke_once ed ~key:param)

let adaptive_policy _kind =
  {
    Podopt_optimize.Adaptive.default_policy with
    Podopt_optimize.Adaptive.threshold = 10;
    min_trace = 120;
    fallback_limit = 64;
    max_trace = 50_000;
  }
