(* Trace persistence: a line-oriented text format so traces can be
   collected in one run and analyzed off-line in another — the paper's
   methodology ("the analysis and optimizations are currently performed
   manually off-line after the program ... has been executed enough times
   to develop an adequate profile").

   Format (one entry per line, chronological):

     E  <time> <depth> <mode>  <event>          raise/occurrence
     DB <time> <depth> <event>                  dispatch begin
     DE <time> <depth> <event>                  dispatch end
     HB <time> <depth> <event> <handler>        handler begin
     HE <time> <depth> <event> <handler>        handler end

   with <mode> = S | A | T<delay>.  Names must be whitespace-free (all
   event/handler names in this system are).  The framing, comments and
   errors are Podopt_codec.Lines's; this format has no [V] line. *)

open Podopt_hir
open Podopt_eventsys
module Lines = Podopt_codec.Lines

let mode_to_token = function
  | Ast.Sync -> "S"
  | Ast.Async -> "A"
  | Ast.Timed d -> Printf.sprintf "T%d" d

let mode_of_token = function
  | "S" -> Ast.Sync
  | "A" -> Ast.Async
  | tok when String.length tok > 1 && tok.[0] = 'T' ->
    (match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
     | Some d -> Ast.Timed d
     | None -> Lines.error "bad timed mode %S" tok)
  | tok -> Lines.error "bad mode %S" tok

let entry_to_line = function
  | Trace.Event_raised { event; mode; time; depth } ->
    Lines.check_name "event" event;
    Printf.sprintf "E %d %d %s %s" time depth (mode_to_token mode) event
  | Trace.Dispatch_begin { event; time; depth } ->
    Lines.check_name "event" event;
    Printf.sprintf "DB %d %d %s" time depth event
  | Trace.Dispatch_end { event; time; depth } ->
    Lines.check_name "event" event;
    Printf.sprintf "DE %d %d %s" time depth event
  | Trace.Handler_begin { event; handler; time; depth } ->
    Lines.check_name "event" event;
    Lines.check_name "handler" handler;
    Printf.sprintf "HB %d %d %s %s" time depth event handler
  | Trace.Handler_end { event; handler; time; depth } ->
    Lines.check_name "event" event;
    Lines.check_name "handler" handler;
    Printf.sprintf "HE %d %d %s %s" time depth event handler

let entry_of_fields line fields =
  let int_field what s = Lines.int ~line what s in
  match fields with
  | [] -> None
  | [ "E"; time; depth; mode; event ] ->
    Some
      (Trace.Event_raised
         {
           event;
           mode = mode_of_token mode;
           time = int_field "time" time;
           depth = int_field "depth" depth;
         })
  | [ "DB"; time; depth; event ] ->
    Some
      (Trace.Dispatch_begin
         { event; time = int_field "time" time; depth = int_field "depth" depth })
  | [ "DE"; time; depth; event ] ->
    Some
      (Trace.Dispatch_end
         { event; time = int_field "time" time; depth = int_field "depth" depth })
  | [ "HB"; time; depth; event; handler ] ->
    Some
      (Trace.Handler_begin
         { event; handler; time = int_field "time" time; depth = int_field "depth" depth })
  | [ "HE"; time; depth; event; handler ] ->
    Some
      (Trace.Handler_end
         { event; handler; time = int_field "time" time; depth = int_field "depth" depth })
  | tag :: _ -> Lines.error "bad entry tag %S in line %S" tag line

let entry_of_line line = entry_of_fields line (Lines.fields line)

let to_string (trace : Trace.t) : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (entry_to_line e);
      Buffer.add_char buf '\n')
    (Trace.entries trace);
  Buffer.contents buf

let of_string (s : string) : Trace.t =
  let entries = ref [] in
  Lines.iter
    (fun line fields ->
      Option.iter (fun e -> entries := e :: !entries) (entry_of_fields line fields))
    s;
  Trace.of_entries (List.rev !entries)
