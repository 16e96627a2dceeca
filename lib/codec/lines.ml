(* The line codec shared by Podopt_profile.Trace_io, Podopt_store.Store
   and Podopt_replay.Log. *)

exception Format_error of string

let error fmt = Format.kasprintf (fun s -> raise (Format_error s)) fmt
let fields line = String.split_on_char ' ' line |> List.filter (( <> ) "")

let int ?line what s =
  match (int_of_string_opt s, line) with
  | Some n, _ -> n
  | None, None -> error "bad %s %S" what s
  | None, Some line -> error "bad %s %S in line %S" what s line

let bool what s =
  match bool_of_string_opt s with
  | Some b -> b
  | None -> error "bad %s %S (expected true or false)" what s

let check_name what name =
  if name = "" then error "empty %s name" what;
  if String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') name then
    error "%s name %S contains whitespace" what name

(* [%g] keeps six significant digits, so [pareto:1.0000001] would print
   as [pareto:1]; more digits only where [%g] loses the float, so every
   spec it printed faithfully prints as before. *)
let float_to_string f =
  let at p = Printf.sprintf "%.*g" p f in
  match List.find_opt (fun p -> float_of_string (at p) = f) [ 6; 15; 16 ] with
  | Some p -> at p
  | None -> at 17

let hex s = if s = "" then "-" else Podopt_hir.Value.to_hex s

let of_hex s =
  let v c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> error "bad hex digit %C in %S" c s
  in
  if s = "-" then Bytes.empty
  else if String.length s mod 2 <> 0 then error "odd-length hex %S" s
  else
    Bytes.init (String.length s / 2) (fun i -> Char.chr ((v s.[2 * i] * 16) + v s.[(2 * i) + 1]))

let digest s = Printf.sprintf "%08x" (Podopt_crypto.Crc32.of_string s)

let add_doc buf tag doc =
  let lines = String.split_on_char '\n' doc in
  (* a newline-terminated document splits into a final empty element *)
  let lines = match List.rev lines with "" :: rev -> List.rev rev | _ -> lines in
  List.iter
    (fun l -> if l = "" then Printf.bprintf buf "%c\n" tag else Printf.bprintf buf "%c %s\n" tag l)
    lines

let iter ?version ?(docs = []) record text =
  let bufs = List.map (fun (tag, _) -> (tag, Buffer.create 1024)) docs in
  let versioned = version <> None and saw_version = ref false in
  List.iter
    (fun raw ->
      let n = String.length raw in
      match if n = 0 then None else List.assoc_opt raw.[0] bufs with
      | Some b when n = 1 || raw.[1] = ' ' ->
        (* verbatim, so recognized before trimming *)
        if n > 2 then Buffer.add_substring b raw 2 (n - 2);
        Buffer.add_char b '\n'
      | _ ->
        let line = String.trim raw in
        if line <> "" && line.[0] <> '#' then
          match (version, fields line) with
          | Some (format, expected), [ "V"; v ] ->
            let v = int "version" v in
            if v <> expected then
              error "unsupported %s version %d (expected %d)" format v expected;
            saw_version := true
          | _, fs ->
            record line fs;
            (* after [record], so that a bad record reports its own error *)
            if versioned && not !saw_version then error "%s line before V line" (List.hd fs))
    (String.split_on_char '\n' text);
  if versioned && not !saw_version then error "missing V line";
  List.iter2 (fun (_, handle) (_, b) -> handle (Buffer.contents b)) docs bufs

let save path text = Out_channel.with_open_bin path (fun oc -> output_string oc text)
let load path = In_channel.with_open_bin path (fun ic -> really_input_string ic (in_channel_length ic))
