(* Dynamic values carried by event activations and manipulated by HIR
   handler code.

   The event system marshals argument vectors into a flat byte encoding at
   each generic [raise] and unmarshals them per handler invocation; this is
   the "argument marshaling" overhead the paper's optimizations remove.  The
   encoding below is therefore real work, not a stub. *)

type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Bytes of bytes
  | Pair of t * t
  | List of t list

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let rec equal a b =
  match a, b with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Bytes x, Bytes y -> Bytes.equal x y
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | List xs, List ys ->
    (try List.for_all2 equal xs ys with Invalid_argument _ -> false)
  | (Unit | Bool _ | Int _ | Float _ | Str _ | Bytes _ | Pair _ | List _), _ ->
    false

let compare = Stdlib.compare

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | Bool b -> Fmt.bool ppf b
  | Int n -> Fmt.int ppf n
  | Float f -> Fmt.float ppf f
  | Str s -> Fmt.pf ppf "%S" s
  | Bytes b -> Fmt.pf ppf "0x%s" (to_hex (Bytes.to_string b))
  | Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp a pp b
  | List vs -> Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any "; ") pp) vs

and to_hex s =
  let digits = "0123456789abcdef" in
  String.init (2 * String.length s) (fun i ->
      let c = Char.code s.[i / 2] in
      digits.[if i land 1 = 0 then c lsr 4 else c land 0xf])

let to_string v = Fmt.str "%a" pp v

(* Accessors used by primitives and by handler glue code. *)

let as_int = function Int n -> n | v -> type_error "expected int, got %s" (to_string v)
let as_float = function
  | Float f -> f
  | Int n -> float_of_int n
  | v -> type_error "expected float, got %s" (to_string v)
let as_bool = function Bool b -> b | v -> type_error "expected bool, got %s" (to_string v)
let as_str = function Str s -> s | v -> type_error "expected string, got %s" (to_string v)
let as_bytes = function Bytes b -> b | v -> type_error "expected bytes, got %s" (to_string v)
let as_pair = function Pair (a, b) -> (a, b) | v -> type_error "expected pair, got %s" (to_string v)
let as_list = function List l -> l | v -> type_error "expected list, got %s" (to_string v)

let truthy = function
  | Bool b -> b
  | Int n -> n <> 0
  | Unit -> false
  | v -> type_error "expected condition, got %s" (to_string v)

(* --- Binary marshaling ---------------------------------------------- *)

let add_i64 buf n =
  for i = 0 to 7 do
    Buffer.add_char buf
      (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xFFL)))
  done

let add_int64 buf n = add_i64 buf (Int64.of_int n)
let add_len buf n = add_int64 buf n

let rec encode buf = function
  | Unit -> Buffer.add_char buf '\000'
  | Bool b ->
    Buffer.add_char buf '\001';
    Buffer.add_char buf (if b then '\001' else '\000')
  | Int n ->
    Buffer.add_char buf '\002';
    add_int64 buf n
  | Float f ->
    Buffer.add_char buf '\003';
    add_i64 buf (Int64.bits_of_float f)
  | Str s ->
    Buffer.add_char buf '\004';
    add_len buf (String.length s);
    Buffer.add_string buf s
  | Bytes b ->
    Buffer.add_char buf '\005';
    add_len buf (Bytes.length b);
    Buffer.add_bytes buf b
  | Pair (a, b) ->
    Buffer.add_char buf '\006';
    encode buf a;
    encode buf b
  | List vs ->
    Buffer.add_char buf '\007';
    add_len buf (List.length vs);
    List.iter (encode buf) vs

exception Unmarshal_error of string

let read_i64 s pos =
  if !pos + 8 > String.length s then raise (Unmarshal_error "truncated int");
  let n = ref 0L in
  for i = 7 downto 0 do
    n := Int64.logor (Int64.shift_left !n 8) (Int64.of_int (Char.code s.[!pos + i]))
  done;
  pos := !pos + 8;
  !n

let read_int64 s pos = Int64.to_int (read_i64 s pos)

let read_char s pos =
  if !pos >= String.length s then raise (Unmarshal_error "truncated tag");
  let c = s.[!pos] in
  incr pos;
  c

let read_string s pos n =
  if !pos + n > String.length s then raise (Unmarshal_error "truncated payload");
  let r = String.sub s !pos n in
  pos := !pos + n;
  r

let rec decode s pos =
  match read_char s pos with
  | '\000' -> Unit
  | '\001' -> Bool (read_char s pos <> '\000')
  | '\002' -> Int (read_int64 s pos)
  | '\003' -> Float (Int64.float_of_bits (read_i64 s pos))
  | '\004' ->
    let n = read_int64 s pos in
    Str (read_string s pos n)
  | '\005' ->
    let n = read_int64 s pos in
    Bytes (Bytes.of_string (read_string s pos n))
  | '\006' ->
    let a = decode s pos in
    let b = decode s pos in
    Pair (a, b)
  | '\007' ->
    let n = read_int64 s pos in
    let rec loop k acc = if k = 0 then List (List.rev acc) else loop (k - 1) (decode s pos :: acc) in
    loop n []
  | c -> raise (Unmarshal_error (Printf.sprintf "bad tag %d" (Char.code c)))

(* Marshal an argument vector as raised; unmarshal it back per handler. *)

let marshal (args : t list) : string =
  let buf = Buffer.create 64 in
  add_len buf (List.length args);
  List.iter (encode buf) args;
  Buffer.contents buf

let unmarshal (s : string) : t list =
  let pos = ref 0 in
  let n = read_int64 s pos in
  let rec loop k acc = if k = 0 then List.rev acc else loop (k - 1) (decode s pos :: acc) in
  let vs = loop n [] in
  if !pos <> String.length s then raise (Unmarshal_error "trailing bytes");
  vs
