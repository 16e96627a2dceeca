(* Events: interned name/id pairs.

   The set of events is dynamic (Cactus-style user-defined events); the
   runtime interns names so the hot dispatch path works on integer ids. *)

type t = { id : int; name : string }

let compare a b = Int.compare a.id b.id
let equal a b = a.id = b.id
let hash a = a.id
let pp ppf e = Fmt.string ppf e.name

(* Interning table; one per runtime. *)
type table = {
  mutable next : int;
  by_name : (string, t) Hashtbl.t;
  by_id : (int, t) Hashtbl.t;
}

let create_table () = { next = 0; by_name = Hashtbl.create 32; by_id = Hashtbl.create 32 }

let intern tbl name =
  match Hashtbl.find tbl.by_name name with
  | e -> e
  | exception Not_found ->
    let e = { id = tbl.next; name } in
    tbl.next <- tbl.next + 1;
    Hashtbl.add tbl.by_name name e;
    Hashtbl.add tbl.by_id e.id e;
    e

let find_opt tbl name = Hashtbl.find_opt tbl.by_name name
let of_id tbl id = Hashtbl.find_opt tbl.by_id id
let all tbl = Hashtbl.fold (fun _ e acc -> e :: acc) tbl.by_name []
