(* Smoke test of the benchmark command, run by `dune runtest`.  The
   command reads benchmark/golden.txt and writes benchmark/traces/ under
   its working directory, so each case runs in a scratch directory laid
   out like the repository root:

   - `run --quick --trace 1` exits 0, prints every metric BENCHMARK.json
     names (end-to-end and per-layer) with its unit for every workload,
     and its rounds match the committed golden digests;
   - a tampered golden digest makes the command exit non-zero;
   - so does a golden file that is missing, or lacks the workload.

   Usage: smoke.exe MAIN_EXE GOLDEN BENCHMARK_JSON *)

(* --- a minimal JSON reader, enough for BENCHMARK.json ----------------- *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Lit of string

let parse_json s =
  let pos = ref 0 in
  let peek () = if !pos < String.length s then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with ' ' | '\n' | '\r' | '\t' -> incr pos; ws () | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "BENCHMARK.json: expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          if peek () = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if peek () = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | _ ->
      let start = !pos in
      while
        match peek () with ',' | '}' | ']' | ' ' | '\n' | '\000' -> false | _ -> true
      do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      (match float_of_string_opt tok with Some f -> Num f | None -> Lit tok)
  in
  value ()

let field k = function
  | Obj kv -> (try List.assoc k kv with Not_found -> failwith ("missing key " ^ k))
  | _ -> failwith ("not an object at " ^ k)

let str = function Str s -> s | _ -> failwith "expected a string"
let arr = function Arr l -> l | _ -> failwith "expected an array"

(* --- running the command ----------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run [exe args] in directory [dir]; its output and whether it exited 0. *)
let run ~dir exe args =
  let here = Sys.getcwd () in
  Sys.chdir dir;
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Sys.chdir here;
  Unix.close w;
  let out = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let _, status = Unix.waitpid [] pid in
  (out, status = Unix.WEXITED 0)

(* A scratch root under [tmp] whose benchmark/golden.txt holds [lines]
   (none at all for [None]). *)
let root tmp name lines =
  let dir = Filename.concat tmp name in
  Sys.mkdir dir 0o755;
  Option.iter
    (fun lines ->
      Sys.mkdir (Filename.concat dir "benchmark") 0o755;
      Out_channel.with_open_bin (Filename.concat dir "benchmark/golden.txt") (fun oc ->
          List.iter (fun l -> output_string oc (l ^ "\n")) lines))
    lines;
  dir

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let failures = ref 0

let check ok msg =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n" msg
  end

let () =
  let exe, golden, bench =
    match Sys.argv with
    | [| _; exe; golden; bench |] -> (exe, golden, bench)
    | _ -> failwith "usage: smoke.exe MAIN_EXE GOLDEN BENCHMARK_JSON"
  in
  let spec = parse_json (read_file bench) in
  let workloads = List.map (fun w -> str (field "name" w)) (arr (field "workloads" spec)) in
  let metrics =
    List.concat_map
      (fun key ->
        List.map (fun m -> (str (field "name" m), str (field "unit" m))) (arr (field key spec)))
      [ "end_to_end"; "per_layer" ]
  in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let golden_lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file golden))
  in
  let tmp = Filename.temp_dir "podopt-bench-smoke" "" in
  let good = root tmp "good" (Some golden_lines) in
  let out, ok = run ~dir:good exe [ "run"; "--quick"; "--trace"; "1" ] in
  check ok "`run --quick --trace 1` exited non-zero";
  let printed = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ w; name; v; unit ] when float_of_string_opt v <> None ->
        Hashtbl.replace printed (w, name) unit
      | _ -> ())
    (String.split_on_char '\n' out);
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit) ->
          match Hashtbl.find_opt printed (w, name) with
          | Some u -> check (u = unit) (Printf.sprintf "%s %s printed in %s, not %s" w name u unit)
          | None -> check false (Printf.sprintf "%s %s not printed" w name))
        metrics;
      check
        (Sys.file_exists (Filename.concat good ("benchmark/traces/" ^ w ^ ".trace.json")))
        (w ^ ": no Chrome trace written"))
    workloads;
  List.iter
    (fun w ->
      check
        (List.exists (fun l -> String.starts_with ~prefix:(w ^ " quick ") l) golden_lines)
        (w ^ ": no quick golden digest"))
    workloads;
  check
    (not (List.exists (fun l -> String.length l > 0 && l.[0] = '#' &&
                                 List.mem "MISMATCH:" (String.split_on_char ' ' l))
            (String.split_on_char '\n' out)))
    "a round's digest differs from the golden one";
  (* the chat-fanout quick digest tampered, dropped, or the whole file
     missing: each run must fail *)
  let is_chat = String.starts_with ~prefix:"chat-fanout quick " in
  List.iter
    (fun (name, lines) ->
      let _, ok =
        run ~dir:(root tmp name lines) exe [ "run"; "--quick"; "--workload"; "chat-fanout" ]
      in
      check (not ok) (Printf.sprintf "a %s golden digest did not make the run fail" name))
    [
      ( "tampered",
        Some
          (List.map
             (fun l -> if is_chat l then "chat-fanout quick 0000000000000000" else l)
             golden_lines) );
      ("dropped", Some (List.filter (fun l -> not (is_chat l)) golden_lines));
      ("missing", None);
    ];
  remove tmp;
  if !failures > 0 then exit 1
